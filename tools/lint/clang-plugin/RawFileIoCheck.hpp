#pragma once

// ytcdn-raw-file-io
//
// AST-accurate port of ytcdn_lint's `raw-file-io` rule: every file access in
// src/ and tools/ routes through util::io (read_file / write_file_atomic) so
// the chaos fault plan, EINTR retry and fsync durability apply everywhere. A
// stream opened on the side is invisible to all three. The check flags
//
//  * construction of std::{i,o,}fstream (any basic_*stream specialization),
//  * fopen / freopen / open / openat / creat calls.
//
// Matching constructions and calls by type keeps it silent on strings and
// comments that merely mention fopen — and on the `std::ifstream` spelled
// out in an error message.
//
// Options:
//   RestrictToDirs — path fragments the check applies to
//                    (default "src/;tools/").
//   AllowedFiles   — exempt path fragments (default the util::io facade and
//                    the atomic-write shim).

#include "YtcdnCheckUtil.hpp"
#include "clang/ASTMatchers/ASTMatchFinder.h"

namespace clang::tidy::ytcdn {

class RawFileIoCheck : public ClangTidyCheck {
public:
  RawFileIoCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context),
        RestrictToDirs(Options.get("RestrictToDirs", "src/;tools/")),
        AllowedFiles(Options.get(
            "AllowedFiles",
            "src/util/io.;tools/lint/clang-plugin/")) {}

  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override {
    Options.store(Opts, "RestrictToDirs", RestrictToDirs);
    Options.store(Opts, "AllowedFiles", AllowedFiles);
  }

private:
  bool inScope(SourceLocation Loc, const SourceManager &SM) const;
  std::string RestrictToDirs;
  std::string AllowedFiles;
};

} // namespace clang::tidy::ytcdn
