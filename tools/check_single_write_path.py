#!/usr/bin/env python3
"""Keep one durable-write path, one store read path and one owner of
block verification.

Fail unless src/common/file_io.cc holds the only call in src/ to each of
rename(, opendir(, fsync(, sync_file_range( and pwrite(; unless
WriteShardManifest( is called exactly twice: once by the shard writer
(src/data/rolling_store.cc) and once by the manifest rebuild
(src/data/store_recovery.cc); and unless ColumnStoreReader::Open( is
called exactly three times: by the shard check (src/data/shard_store.cc),
by the seal's digest reopen (src/data/rolling_store.cc) and by the
stray-shard rebuild (src/data/store_recovery.cc), which has no manifest
entry to check a file against; and unless VerifyBlocks( is called exactly
twice: by ShardedStoreReader::VerifiedShard (src/data/shard_store.cc), the
one read-path accessor that verifies a shard's blocks, and by the same
stray-shard rebuild.

Every durable publish goes through common/file_io (fsync the temp,
rename, fsync the directory) and every versioned-series scan through its
FileSeries. Every durable byte leaves through its WriteFully, so every
write error names its errno. Writers start writeback early only through
its StartWriteback hint, so the hint stays beside the one fsync that
makes the bytes durable. A second call site is a second publish, write,
sync or scan path that skips that discipline; a third manifest writer is
a second copy of the seal-then-publish protocol. Every read of a store
goes through data::ShardedStoreReader, whose shard() checks each shard
file against its manifest entry before anything reads it; a fourth
ColumnStoreReader::Open( is a read path that skips that check. A shard's
blocks are verified once per reader, on its first read, and only
VerifiedShard decides when; a third VerifyBlocks( is a second decision.
Both .cc and .h files are scanned, so an inline function in a header
counts too. Comments and string literals do not count: headers and
comments name rename( and fsync( on purpose. Neither do the declarations
or definitions of WriteShardManifest, ColumnStoreReader::Open and
ColumnStoreReader::VerifyBlocks themselves.

Usage: python3 tools/check_single_write_path.py [repo_root]
Exit status 0 when the invariant holds, 1 otherwise (sites listed).
"""

import pathlib
import re
import sys

OWNER = "src/common/file_io.cc"
# Call name -> the files that must hold its call sites, one each.
OWNERS = {
    "rename": [OWNER],
    "opendir": [OWNER],
    "fsync": [OWNER],
    "sync_file_range": [OWNER],
    "pwrite": [OWNER],
    "WriteShardManifest": ["src/data/rolling_store.cc",
                           "src/data/store_recovery.cc"],
    "ColumnStoreReader::Open": ["src/data/rolling_store.cc",
                                "src/data/shard_store.cc",
                                "src/data/store_recovery.cc"],
    "VerifyBlocks": ["src/data/shard_store.cc",
                     "src/data/store_recovery.cc"],
}
# Member functions whose out-of-class definition `Class::name(` is not a
# call.
MEMBERS = {"VerifyBlocks"}
# A call, not a longer name that ends in it, nor the `Status` or
# `Result<...>` return type of its declaration or definition.
CALLS = {
    name: re.compile(r"(?<![A-Za-z0-9_])(?<!Status )(?<!> )" +
                     (r"(?<![A-Za-z0-9_]::)" if name in MEMBERS else "") +
                     re.escape(name) + r"\s*\(")
    for name in OWNERS
}
# A // comment, a /* */ comment, or a string or character literal.
NON_CODE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL)


def code_only(text):
    """`text` with comments and literals blanked, line numbers kept."""
    return NON_CODE.sub(lambda match: "\n" * match.group(0).count("\n"), text)


def call_sites(root):
    """{call name: [(relative path, line number), ...]} over src/."""
    sites = {name: [] for name in CALLS}
    paths = sorted(p for p in (root / "src").rglob("*")
                   if p.suffix in (".cc", ".h"))
    for path in paths:
        relative = path.relative_to(root).as_posix()
        code = code_only(path.read_text())
        for number, line in enumerate(code.splitlines(), 1):
            for name, pattern in CALLS.items():
                if pattern.search(line):
                    sites[name].append((relative, number))
    return sites


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    ok = True
    for name, found in call_sites(root).items():
        owners = OWNERS[name]
        if sorted(relative for relative, _ in found) == owners:
            where = ", ".join(f"{relative}:{number}"
                              for relative, number in found)
            print(f"{name}(: {len(found)} call(s), {where}")
            continue
        ok = False
        print(f"error: {name}( must be called exactly once in each of "
              f"{', '.join(owners)}; found {len(found)} call(s):")
        for relative, number in found:
            print(f"  {relative}:{number}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
