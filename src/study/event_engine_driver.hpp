#pragma once

#include "study/trace_driver.hpp"

namespace ytcdn::study {

/// The benchmark sources under perfbench/ still name the retired sharded
/// driver and cannot change alongside the library; TraceDriver is the only
/// driver now. Library, test, tool and bench code uses TraceDriver itself.
using EventEngineDriver = TraceDriver;

}  // namespace ytcdn::study
