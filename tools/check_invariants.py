#!/usr/bin/env python3
"""Project-invariant linter: rules generic tools cannot know.

Enforces the dpmm-specific correctness contracts that clang-tidy and the
compiler have no way to express:

  raw-fs-call     src/serve/ must do filesystem mutation through the fs_ops
                  seam (fs_ops.cc is the one implementation site). A raw
                  fopen/ofstream/::open/rename there bypasses the
                  fault-injection harness and the fsync discipline, i.e. the
                  crash-safety proof no longer covers that write.
  unseeded-rng    std::rand / std::random_device are forbidden outside
                  util/rng: privacy noise must come from an explicitly seeded
                  Rng (reproducible from the recorded seed), and the one
                  nondeterministic seed source (EntropySeed) lives in
                  util/rng where it is auditable.
  mutex-tsan      every file declaring a mutex member (raw std:: or the
                  dpmm::Mutex wrapper) must be named (by its header path) in
                  at least one test source that tools/ci.sh runs under
                  ThreadSanitizer (TSAN_TESTS) — lock-based code without
                  TSan coverage is how races ship.
  raw-mutex       all locking in src/ and tools/ goes through the
                  capability-annotated wrapper (util/mutex.h): bare
                  std::mutex / std::shared_mutex / std::lock_guard /
                  std::unique_lock / std::condition_variable bypass the
                  clang thread-safety analysis, the lock-rank registry, and
                  the debug inversion checker all at once. std::once_flag /
                  call_once stay sanctioned (once-init has no analyzer
                  model; each site carries a written justification).
  guarded-by      a file declaring a dpmm::Mutex member must annotate the
                  state it guards with DPMM_GUARDED_BY — an unannotated
                  mutex gives clang nothing to check, which silently turns
                  the compile-time discipline back into TSan luck.
  lock-order      every dpmm::Mutex member is constructed with a named
                  LockRank from the registry in util/mutex.h, spelled at
                  the declaration site; ranks must exist in the registry
                  and be pairwise distinct within a file (two locks sharing
                  a rank cannot order against each other, so the runtime
                  monotonicity checker would forbid ever nesting them).
  cli-exit-doc    every nonzero exit code the CLI can return must be
                  documented in README.md ("exit N" / "exit code N"):
                  operators script against these (3 = budget refusal,
                  5 = ledger damage), so an undocumented code is an API hole.
  void-status     discarding a util::Status with a bare (void) cast is
                  forbidden; intentional discards use
                  DPMM_IGNORE_STATUS(expr, "reason") so each one carries a
                  reviewable justification.
  dcheck-hot-path DPMM_CHECK in src/linalg/*.cc kernels must be the
                  debug-only DPMM_DCHECK variant: these run inside the hot
                  SIMD/PCG loops, and an always-on branch costs Release
                  throughput. (DCHECKs still fire in Debug and the sanitizer
                  lanes, which build without NDEBUG.)
  no-committed-build-dir
                  no root-level build tree (build/, build-*/ ...) may be
                  committed: in a git checkout every tracked path under one
                  is flagged; in the fixture self-test (--expect, no git
                  metadata) a root-level build* directory holding a
                  CMakeCache.txt is. A plain scan of a tree without git
                  metadata (a source export) has no history to judge and
                  skips the rule.
                  Build output in history bloats every clone and leaks
                  absolute paths; .gitignore covers these directories.
  metric-name     every string literal registered through
                  MetricsRegistry Get{Counter,Gauge,Histogram} must match
                  "dpmm.<subsystem>.<name>" (lowercase [a-z0-9_], >= 3
                  dot-separated segments). Dashboards and the README
                  inventory key on this scheme; a one-off name silently
                  falls out of every aggregation.
  wall-clock      std::chrono::system_clock outside src/util/ is forbidden:
                  all durations come from the shared monotonic clock
                  (util/stopwatch.h MonotonicNanos), which NTP steps cannot
                  send backwards mid-measurement. Wall-clock timestamps, if
                  ever needed, get one audited helper in util/.
  engine-downcast no dynamic_cast (or dynamic_pointer_cast) to Strategy /
                  KronStrategy in src/ or tools/: LinearStrategy is the one
                  engine seam, and a downcast quietly forks behavior per
                  engine. src/serialize/ is exempt — the artifact codec is
                  engine-aware by design (each engine has its own payload).
                  Tests, benches and examples may inspect engine internals.
  throwing-number-parse
                  no std::stoi / stol / stoll / stoul / stoull / stof / stod
                  / stold in src/ or tools/: they throw on overflow and junk,
                  and an uncaught throw on an untrusted line (a served
                  predicate, a CSV cell) terminates the process. Parse with
                  the strict, non-throwing helpers in util/text.h.

Suppression syntax — on the offending line, or in the comment line(s)
immediately above it:

    // lint:allow(rule-id): reason the violation is correct here

Suppressed findings are reported (and counted in --format=json) but do not
fail the run; the reason is mandatory in spirit and reviewed like any other
code.

Usage:
    check_invariants.py [--root DIR] [--format text|json] [--expect FILE]

--root defaults to the repository containing this script. --expect compares
the complete finding set (active and suppressed) against a JSON file — the
lint_fixtures ctest uses it to regression-test the linter itself.

Exit codes: 0 clean / expectations matched, 1 findings or expectation
mismatch, 2 usage or configuration error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SOURCE_EXTS = (".h", ".cc")
# The fixture tree deliberately violates every rule; the real scan must not
# trip over it.
EXCLUDED_DIRS = {"lint_fixtures", "build", "build-tsan", "build-asan",
                 "build-review", "build-tsafety"}

SUPPRESS_RE = re.compile(r"lint:allow\(([a-z-]+)\)")


def find(rule, path, line_no, message):
    return {"rule": rule, "file": path, "line": line_no, "message": message}


def is_suppressed(rule, lines, idx):
    """lint:allow(rule) on the line itself or the comment block above it."""
    m = SUPPRESS_RE.search(lines[idx])
    if m and m.group(1) == rule:
        return True
    j = idx - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        m = SUPPRESS_RE.search(lines[j])
        if m and m.group(1) == rule:
            return True
        j -= 1
    return False


def iter_sources(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in EXCLUDED_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root)


def scan_line_rule(root, files, rule, line_re, message, active, suppressed):
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if not line_re.search(line):
                continue
            f_ = find(rule, rel, i + 1, message)
            (suppressed if is_suppressed(rule, lines, i) else active).append(f_)


# ---- raw-fs-call ----------------------------------------------------------

RAW_FS_RE = re.compile(
    r"\bfopen\s*\(|std::ofstream|\bofstream\b|::open\s*\(|::rename\s*\(|"
    r"std::rename\b|\brename\s*\(")


def rule_raw_fs_call(root, active, suppressed):
    files = [p for p in iter_sources(root, ["src/serve"])
             if os.path.basename(p) not in ("fs_ops.cc", "fs_ops.h")]
    scan_line_rule(
        root, files, "raw-fs-call", RAW_FS_RE,
        "raw filesystem mutation in src/serve/ bypasses the fs_ops "
        "durability seam (route it through FsOps, or justify with "
        "lint:allow)", active, suppressed)


# ---- unseeded-rng ---------------------------------------------------------

RNG_RE = re.compile(r"std::rand\b|\bsrand\s*\(|std::random_device|"
                    r"\brandom_device\b")


def rule_unseeded_rng(root, active, suppressed):
    files = [p for p in iter_sources(root, ["src", "tools"])
             if not relpath(root, p).startswith(os.path.join("src", "util",
                                                             "rng"))]
    scan_line_rule(
        root, files, "unseeded-rng", RNG_RE,
        "nondeterministic randomness outside util/rng: draw noise from a "
        "seeded dpmm::Rng, or take a process tag from dpmm::EntropySeed()",
        active, suppressed)


# ---- mutex-tsan -----------------------------------------------------------

# Both the raw std:: flavors and the dpmm::Mutex wrapper (whose members are
# brace-initialized with a LockRank) count as "this file holds a lock".
MUTEX_MEMBER_RE = re.compile(
    r"(?:mutable\s+)?(?:std::(?:shared_|recursive_|timed_)?mutex|"
    r"(?:dpmm::)?Mutex)\s+[A-Za-z_]\w*\s*(?:;|\{)")
TSAN_TESTS_RE = re.compile(r"TSAN_TESTS=\(([^)]*)\)")


def tsan_covered_sources(root):
    ci = os.path.join(root, "tools", "ci.sh")
    try:
        with open(ci, encoding="utf-8") as f:
            m = TSAN_TESTS_RE.search(f.read())
    except OSError:
        return None
    if not m:
        return None
    blobs = []
    for test in m.group(1).split():
        src = os.path.join(root, "tests", test + ".cc")
        if os.path.exists(src):
            with open(src, encoding="utf-8", errors="replace") as f:
                blobs.append(f.read())
    return "\n".join(blobs)


def rule_mutex_tsan(root, active, suppressed):
    tsan_blob = tsan_covered_sources(root)
    if tsan_blob is None:
        print("check_invariants: cannot parse TSAN_TESTS from tools/ci.sh",
              file=sys.stderr)
        sys.exit(2)
    for path in iter_sources(root, ["src"]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        hits = [i for i, ln in enumerate(lines) if MUTEX_MEMBER_RE.search(ln)]
        if not hits:
            continue
        # The file is "named" when a TSan-run test mentions its header path
        # (src/a/b.{h,cc} -> "a/b.h").
        stem = os.path.splitext(os.path.relpath(path,
                                                os.path.join(root, "src")))[0]
        token = stem + ".h"
        if token in tsan_blob:
            continue
        for i in hits:
            f_ = find(
                "mutex-tsan", rel, i + 1,
                "mutex member without TSan coverage: no test in tools/ci.sh "
                "TSAN_TESTS names %s" % token)
            (suppressed if is_suppressed("mutex-tsan", lines, i)
             else active).append(f_)


# ---- raw-mutex ------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(?:shared_|recursive_|timed_|shared_timed_)?mutex\b|"
    r"std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b|"
    r"std::condition_variable(?:_any)?\b")
# The wrapper layer is the one place allowed to touch the std primitives.
MUTEX_WRAPPER_FILES = (os.path.join("src", "util", "mutex.h"),
                       os.path.join("src", "util", "mutex.cc"))


def rule_raw_mutex(root, active, suppressed):
    files = [p for p in iter_sources(root, ["src", "tools"])
             if relpath(root, p) not in MUTEX_WRAPPER_FILES]
    scan_line_rule(
        root, files, "raw-mutex", RAW_MUTEX_RE,
        "raw std:: locking outside util/mutex.h bypasses the thread-safety "
        "annotations and the lock-rank checker: use dpmm::Mutex / "
        "MutexLock / ReaderMutexLock / CondVar, or justify with lint:allow",
        active, suppressed)


# ---- guarded-by -----------------------------------------------------------

WRAPPER_MUTEX_MEMBER_RE = re.compile(
    r"(?:mutable\s+)?(?:dpmm::)?Mutex\s+[A-Za-z_]\w*\s*(?:;|\{)")


def rule_guarded_by(root, active, suppressed):
    for path in iter_sources(root, ["src"]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        lines = text.splitlines()
        hits = [i for i, ln in enumerate(lines)
                if WRAPPER_MUTEX_MEMBER_RE.search(ln)]
        if not hits:
            continue
        # File-granular by design: which members a mutex guards is not
        # decidable by regex, but a Mutex-holding file with *zero*
        # annotations has certainly opted out of the analysis.
        if "DPMM_GUARDED_BY(" in text or "DPMM_PT_GUARDED_BY(" in text:
            continue
        for i in hits:
            f_ = find(
                "guarded-by", rel, i + 1,
                "dpmm::Mutex member without any DPMM_GUARDED_BY annotation "
                "in this file: mark the state it guards (clang checks it "
                "under -Wthread-safety), or justify with lint:allow")
            (suppressed if is_suppressed("guarded-by", lines, i)
             else active).append(f_)


# ---- lock-order -----------------------------------------------------------

MUTEX_RANK_DECL_RE = re.compile(
    r"(?:mutable\s+)?(?:dpmm::)?Mutex\s+[A-Za-z_]\w*\s*\{\s*"
    r"(?:dpmm::)?LockRank::(k\w+)\s*\}")


def known_lock_ranks(root):
    """The rank names defined in util/mutex.h, or None outside the real
    tree (the fixture tree has no registry to validate against)."""
    path = os.path.join(root, "src", "util", "mutex.h")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    m = re.search(r"enum class LockRank[^{]*\{([^}]*)\}", text, re.DOTALL)
    if not m:
        return None
    return set(re.findall(r"\b(k\w+)\s*=", m.group(1)))


def rule_lock_order(root, active, suppressed):
    known = known_lock_ranks(root)
    for path in iter_sources(root, ["src"]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        seen_ranks = {}
        for i, line in enumerate(lines):
            if not WRAPPER_MUTEX_MEMBER_RE.search(line):
                continue
            m = MUTEX_RANK_DECL_RE.search(line)
            if not m:
                f_ = find(
                    "lock-order", rel, i + 1,
                    "dpmm::Mutex member without a named LockRank at the "
                    "declaration site: every lock states its place in the "
                    "util/mutex.h hierarchy where readers look for it")
                (suppressed if is_suppressed("lock-order", lines, i)
                 else active).append(f_)
                continue
            rank = m.group(1)
            if known is not None and rank not in known:
                f_ = find(
                    "lock-order", rel, i + 1,
                    "LockRank::%s is not defined in the util/mutex.h "
                    "registry: add it to the enum and the hierarchy table"
                    % rank)
                (suppressed if is_suppressed("lock-order", lines, i)
                 else active).append(f_)
                continue
            if rank in seen_ranks:
                f_ = find(
                    "lock-order", rel, i + 1,
                    "LockRank::%s already ranks the mutex on line %d: two "
                    "locks sharing a rank can never nest (the monotonicity "
                    "checker requires strictly increasing ranks), so give "
                    "each its own level" % (rank, seen_ranks[rank]))
                (suppressed if is_suppressed("lock-order", lines, i)
                 else active).append(f_)
                continue
            seen_ranks[rank] = i + 1


# ---- cli-exit-doc ---------------------------------------------------------

RETURN_CODE_RE = re.compile(r"\breturn\s+(\d+)\s*;|\bstd::exit\s*\(\s*(\d+)")


def rule_cli_exit_doc(root, active, suppressed):
    cli = os.path.join(root, "tools", "dpmm_cli.cc")
    readme = os.path.join(root, "README.md")
    if not os.path.exists(cli):
        return
    try:
        with open(readme, encoding="utf-8") as f:
            readme_text = f.read()
    except OSError:
        readme_text = ""
    with open(cli, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    documented = set()
    for m in re.finditer(r"exits?(?:\s+code)?[\s`*]*(\d+)", readme_text,
                         re.IGNORECASE):
        documented.add(int(m.group(1)))
    seen = set()
    for i, line in enumerate(lines):
        for m in RETURN_CODE_RE.finditer(line):
            code = int(m.group(1) or m.group(2))
            if code == 0 or code > 255 or code in documented:
                continue
            if code in seen:
                continue  # one finding per undocumented code
            f_ = find(
                "cli-exit-doc", relpath(root, cli), i + 1,
                "CLI can exit %d but README.md does not document "
                "'exit code %d'" % (code, code))
            if is_suppressed("cli-exit-doc", lines, i):
                suppressed.append(f_)
            else:
                active.append(f_)
                seen.add(code)


# ---- void-status ----------------------------------------------------------

VOID_STATUS_RE = re.compile(r"\(void\)")
STATUS_WORD_RE = re.compile(r"status", re.IGNORECASE)


def rule_void_status(root, active, suppressed):
    files = list(iter_sources(root, ["src", "tools", "tests"]))
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if VOID_STATUS_RE.search(line) and STATUS_WORD_RE.search(line):
                f_ = find(
                    "void-status", rel, i + 1,
                    "(void)-discarded Status: use DPMM_IGNORE_STATUS(expr, "
                    "\"reason\") so the discard is justified and greppable")
                (suppressed if is_suppressed("void-status", lines, i)
                 else active).append(f_)


# ---- dcheck-hot-path ------------------------------------------------------

HOT_CHECK_RE = re.compile(r"\bDPMM_CHECK(?:_(?:MSG|EQ|GT|GE|LT|LE))?\s*\(")


def rule_dcheck_hot_path(root, active, suppressed):
    files = [p for p in iter_sources(root, ["src/linalg"])
             if p.endswith(".cc")]
    scan_line_rule(
        root, files, "dcheck-hot-path", HOT_CHECK_RE,
        "always-on DPMM_CHECK in a linalg kernel: use DPMM_DCHECK (active "
        "in Debug + sanitizer lanes, free in Release), or justify an "
        "API-boundary check with lint:allow", active, suppressed)


# ---- no-committed-build-dir -----------------------------------------------

BUILD_DIR_RE = re.compile(r"^build(-|$)")

# Set by --expect. The fixture tree has no git metadata, so only there does
# the rule read the on-disk layout instead of the tracked paths.
FIXTURE_MODE = False


def rule_no_committed_build_dir(root, active, suppressed):
    del suppressed  # a directory cannot carry a lint:allow comment
    offenders = {}
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "ls-files"],
                                 capture_output=True, text=True,
                                 check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return  # git metadata present but unreadable: nothing to prove
        for path in out.splitlines():
            first = path.split("/", 1)[0]
            if BUILD_DIR_RE.match(first):
                offenders.setdefault(first, path)
    elif FIXTURE_MODE:
        # A root-level build* directory holding a CMakeCache.txt is what a
        # committed build tree looks like on disk.
        try:
            entries = sorted(os.listdir(root))
        except OSError:
            return
        for name in entries:
            cache = os.path.join(root, name, "CMakeCache.txt")
            if BUILD_DIR_RE.match(name) and os.path.isfile(cache):
                offenders.setdefault(name, name + "/CMakeCache.txt")
    for name in sorted(offenders):
        active.append(find(
            "no-committed-build-dir", offenders[name], 1,
            "build tree '%s/' is under version control: git rm -r --cached "
            "it and keep it in .gitignore" % name))


# ---- metric-name ----------------------------------------------------------

METRIC_GET_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"')
METRIC_NAME_OK_RE = re.compile(r"^dpmm(?:\.[a-z0-9_]+){2,}$")


def rule_metric_name(root, active, suppressed):
    files = list(iter_sources(root, ["src", "tools", "tests", "bench"]))
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            bad = [m.group(1) for m in METRIC_GET_RE.finditer(line)
                   if not METRIC_NAME_OK_RE.match(m.group(1))]
            if not bad:
                continue
            f_ = find(
                "metric-name", rel, i + 1,
                "metric name '%s' breaks the dpmm.<subsystem>.<name> "
                "scheme (lowercase [a-z0-9_], >= 3 dot-separated "
                "segments)" % bad[0])
            (suppressed if is_suppressed("metric-name", lines, i)
             else active).append(f_)


# ---- wall-clock -----------------------------------------------------------

WALL_CLOCK_RE = re.compile(r"std::chrono::system_clock|"
                           r"\bchrono::system_clock\b")


def rule_wall_clock(root, active, suppressed):
    util_prefix = os.path.join("src", "util") + os.sep
    files = [p for p in iter_sources(root, ["src", "tools", "tests", "bench"])
             if not relpath(root, p).startswith(util_prefix)]
    scan_line_rule(
        root, files, "wall-clock", WALL_CLOCK_RE,
        "std::chrono::system_clock outside src/util/: time measurements "
        "use the shared monotonic clock (util/stopwatch.h MonotonicNanos); "
        "a wall-clock timestamp needs an audited helper in util/",
        active, suppressed)


# ---- engine-downcast ------------------------------------------------------

ENGINE_DOWNCAST_RE = re.compile(
    r"\bdynamic_(?:pointer_)?cast\s*<\s*(?:const\s+)?(?:dpmm::)?"
    r"(?:Kron)?Strategy\b")


def rule_engine_downcast(root, active, suppressed):
    codec_prefix = os.path.join("src", "serialize") + os.sep
    files = [p for p in iter_sources(root, ["src", "tools"])
             if not relpath(root, p).startswith(codec_prefix)]
    scan_line_rule(
        root, files, "engine-downcast", ENGINE_DOWNCAST_RE,
        "downcast to a concrete strategy engine outside src/serialize/: go "
        "through the LinearStrategy interface (Materialize() for the dense "
        "form), or justify with lint:allow", active, suppressed)


# ---- throwing-number-parse ------------------------------------------------

THROWING_PARSE_RE = re.compile(r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(")


def rule_throwing_number_parse(root, active, suppressed):
    files = list(iter_sources(root, ["src", "tools"]))
    scan_line_rule(
        root, files, "throwing-number-parse", THROWING_PARSE_RE,
        "throwing std::sto* number parse: an out-of-range or malformed "
        "literal aborts the process; use the strict parsers in util/text.h "
        "(ParseSizeT, ParseFiniteDouble), or justify with lint:allow",
        active, suppressed)


RULES = [
    rule_raw_fs_call,
    rule_unseeded_rng,
    rule_mutex_tsan,
    rule_raw_mutex,
    rule_guarded_by,
    rule_lock_order,
    rule_cli_exit_doc,
    rule_void_status,
    rule_dcheck_hot_path,
    rule_no_committed_build_dir,
    rule_metric_name,
    rule_wall_clock,
    rule_engine_downcast,
    rule_throwing_number_parse,
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="tree to scan (default: this repository)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--expect", default=None,
                        help="JSON file with the expected finding set "
                             "(fixture self-test mode)")
    args = parser.parse_args()
    global FIXTURE_MODE
    FIXTURE_MODE = args.expect is not None

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print("check_invariants: no src/ under %s" % root, file=sys.stderr)
        return 2

    active, suppressed = [], []
    for rule in RULES:
        rule(root, active, suppressed)
    key = lambda f: (f["rule"], f["file"], f["line"])  # noqa: E731
    active.sort(key=key)
    suppressed.sort(key=key)

    if args.format == "json":
        print(json.dumps({"findings": active, "suppressed": suppressed},
                         indent=2))
    else:
        for f in active:
            print("%s:%d: [%s] %s" % (f["file"], f["line"], f["rule"],
                                      f["message"]))
        for f in suppressed:
            print("%s:%d: [%s] suppressed via lint:allow" %
                  (f["file"], f["line"], f["rule"]))

    if args.expect:
        with open(args.expect, encoding="utf-8") as fp:
            expected = json.load(fp)
        got = ([dict(f, suppressed=False) for f in active] +
               [dict(f, suppressed=True) for f in suppressed])
        got_set = {(f["rule"], f["file"], f["line"], f["suppressed"])
                   for f in got}
        want_set = {(f["rule"], f["file"], f["line"],
                     bool(f.get("suppressed"))) for f in expected}
        missing = want_set - got_set
        unexpected = got_set - want_set
        for f in sorted(missing):
            print("EXPECTED but not found: %s:%d [%s] suppressed=%s" %
                  (f[1], f[2], f[0], f[3]))
        for f in sorted(unexpected):
            print("UNEXPECTED finding: %s:%d [%s] suppressed=%s" %
                  (f[1], f[2], f[0], f[3]))
        if missing or unexpected:
            return 1
        print("check_invariants: fixture expectations matched "
              "(%d findings, %d suppressed)" % (len(active), len(suppressed)))
        return 0

    if active:
        print("check_invariants: %d finding(s)" % len(active),
              file=sys.stderr)
        return 1
    if args.format == "text":
        print("check_invariants: clean (%d suppression(s) in effect)"
              % len(suppressed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
