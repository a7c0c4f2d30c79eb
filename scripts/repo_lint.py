#!/usr/bin/env python3
"""Repo-invariant lint pass (DESIGN.md §13).

Enforces the structural concurrency/performance invariants that neither the
compiler nor clang-tidy can express, by scanning first-party sources:

  R1 thread-outside-pool     std::thread only in src/common/thread_pool.{h,cc}
                             — all parallelism goes through the shared pool.
  R2 mutex-outside-common    std::mutex / lock_guard / unique_lock /
                             scoped_lock / condition_variable / call_once /
                             once_flag (and the <mutex> / <condition_variable>
                             / <shared_mutex> headers) only in
                             src/common/mutex.h — everything else uses the
                             annotated common::Mutex so -Wthread-safety sees
                             every acquisition.
  R3 raw-rng                 std::mt19937 / random_device /
                             default_random_engine only in
                             src/common/rng.{h,cc} — seeds stay controlled
                             and reproducible.
  R4 alloc-in-kernel         no allocation in src/strategies/ — decode
                             kernels run per-point on the query path; any
                             new/push_back/resize/reserve there is a design
                             regression.
  R5 alloc-in-decode-into    no *fresh container construction* inside
                             Decode*Into bodies (src/core/decoder.cc). The
                             *Into contract reuses caller scratch —
                             clear/reserve/push_back on parameters is the
                             point and stays legal; declaring a new local
                             container (or new/make_unique/malloc) defeats it.
  R6 wall-clock-in-hot-path  no clock reads in src/core, src/strategies,
                             src/ted, src/traj — decode/query results must
                             be time-independent; timing belongs to callers
                             (common/stopwatch.h) and the bench/serve layers.
  R7 socket-outside-net      socket/poll syscalls and the networking headers
                             (<sys/socket.h>, <netinet/*>, <arpa/inet.h>,
                             <poll.h>) only under src/net/ — every other
                             layer stays socket-free so it can be tested,
                             fuzzed and reused in-process (DESIGN.md §14).
  R8 adhoc-atomic-counter    integer std::atomic declarations and
                             fetch_add/fetch_sub only under src/obs/ and
                             src/common/ — ad-hoc counter families bypass
                             the MetricRegistry (no snapshot, no wire
                             export, no naming discipline; DESIGN.md §15).
                             Atomic flags (std::atomic<bool>) and atomic
                             pointers stay legal everywhere.
  R9 append-only-section-tags
                             `enum class SectionTag` in
                             src/archive/archive.h keeps every on-disk tag
                             (1-11) at its value and position; a new tag
                             only appends, above every earlier value
                             (DESIGN.md §6: tags are never renumbered).

A finding can be waived inline with `// repo-lint: allow(<rule>)` on the
offending line, but every waiver should carry a justification comment.

Usage: python3 scripts/repo_lint.py              (exits nonzero with findings)
       python3 scripts/repo_lint.py --self-test  (run the rule regression
                                                  suite: known-bad snippets
                                                  must trip, known-good must
                                                  not)
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "tools")
SOURCE_EXTS = (".h", ".cc")

ALLOW_RE = re.compile(r"//\s*repo-lint:\s*allow\(([a-z0-9-]+)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")


def repo_files():
    for top in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(
            os.path.join(REPO_ROOT, top)
        ):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def rel(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


class Finding:
    def __init__(self, rule, path, lineno, line, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.line = line.strip()
        self.message = message

    def __str__(self):
        return (
            f"{rel(self.path)}:{self.lineno}: [{self.rule}] {self.message}\n"
            f"    {self.line}"
        )


def strip_comment(line):
    """Drop a trailing // comment so commented-out code can't trip rules."""
    return LINE_COMMENT_RE.sub("", line)


def scan_lines(path, lines, rule, pattern, message, findings):
    for lineno, raw in enumerate(lines, start=1):
        if pattern.search(strip_comment(raw)):
            allow = ALLOW_RE.search(raw)
            if allow and allow.group(1) == rule:
                continue
            findings.append(Finding(rule, path, lineno, raw, message))


# --- R1/R2/R3: symbol confinement rules -------------------------------------

R1_PATTERN = re.compile(r"\bstd::thread\b|#include\s*<thread>")
R1_ALLOWED = {"src/common/thread_pool.h", "src/common/thread_pool.cc"}

R2_PATTERN = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable|"
    r"condition_variable_any|once_flag|call_once)\b"
    r"|#include\s*<(mutex|condition_variable|shared_mutex)>"
)
R2_ALLOWED = {"src/common/mutex.h"}

R3_PATTERN = re.compile(
    r"\bstd::(mt19937(_64)?|random_device|default_random_engine|minstd_rand0?)\b"
)
R3_ALLOWED = {"src/common/rng.h", "src/common/rng.cc"}

# --- R4: allocation tokens banned wholesale in the kernel TUs ---------------

R4_PATTERN = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\bmake_unique\b|\bmake_shared\b"
    r"|\.push_back\s*\(|\.emplace_back\s*\(|\.resize\s*\(|\.reserve\s*\("
    r"|\bstd::(vector|string|deque|map|unordered_map|set|unordered_set)\s*<"
)

# --- R5: fresh containers inside Decode*Into bodies -------------------------

DECODE_INTO_RE = re.compile(r"\bDecode\w*Into\s*\(")
R5_PATTERN = re.compile(
    r"\bstd::(vector|string|deque|map|unordered_map|set|unordered_set)\s*<"
    r"[^;]*\b\w+\s*[;{(=]"  # a *declaration* of a local container
    r"|\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\("
)

# --- R6: wall-clock reads in decode/query layers ----------------------------

R6_PATTERN = re.compile(
    r"\bstd::chrono\b|\bsteady_clock\b|\bsystem_clock\b"
    r"|\bhigh_resolution_clock\b|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|[^\w.]time\s*\(\s*(NULL|nullptr|0)?\s*\)"
)
R6_DIRS = ("src/core/", "src/strategies/", "src/ted/", "src/traj/")

# --- R7: socket/poll syscalls confined to the serving tier ------------------

R7_PATTERN = re.compile(
    r"#include\s*<(sys/socket\.h|netinet/[\w/]+\.h|arpa/inet\.h|poll\.h"
    r"|sys/epoll\.h)>"
    r"|::(socket|bind|listen|accept4?|connect|recv|recvfrom|send|sendto"
    r"|poll|epoll_create1?|shutdown|getsockname|setsockopt|inet_pton)\s*\("
)
R7_DIR = "src/net/"

# --- R8: ad-hoc atomic counters outside the metrics layer -------------------
# Integer atomics are how bespoke stats grow: a fetch_add here, a counter
# struct there, none of it snapshotable or exported. The obs layer owns
# counting (obs::Counter/Gauge/Histogram); the pool keeps its own atomics
# because its pending-count is a scheduling mechanism, not a metric.
# std::atomic<bool> flags and std::atomic<T*> pointers do not match.

R8_PATTERN = re.compile(
    r"\.fetch_(add|sub)\s*\("
    r"|\bstd::atomic\s*<\s*(u?int\d+_t|std::u?int\d+_t|size_t|std::size_t"
    r"|ptrdiff_t|std::ptrdiff_t|unsigned(\s+(int|long|long\s+long|short"
    r"|char))?|signed(\s+(int|long|long\s+long|short|char))?"
    r"|int|long(\s+long)?|short|char)\s*>"
)
R8_ALLOWED_PREFIXES = ("src/obs/", "src/common/")

# --- R9: archive section tags are append-only --------------------------------

R9_FILE = "src/archive/archive.h"
R9_FROZEN = [
    ("kParams", 1), ("kTStream", 2), ("kRefStream", 3), ("kNrefStream", 4),
    ("kStructure", 5), ("kMetas", 6), ("kStiu", 7), ("kShardManifest", 8),
    ("kTSyncIndex", 9), ("kStiuV4", 10), ("kStiuParams", 11),
    ("kSyncInterval", 12),
]
R9_ENUM_RE = re.compile(r"\benum\s+class\s+SectionTag\b")
R9_ENTRY_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,?\s*$")


def decode_into_bodies(lines):
    """Yield (start_lineno, body_lines) for each Decode*Into definition,
    found by brace matching from the signature line. Body lines start after
    the line holding the opening brace, so parameter declarations in the
    signature (themselves container types) never trip the rule."""
    text_lines = [strip_comment(l) for l in lines]
    i = 0
    n = len(text_lines)
    while i < n:
        if DECODE_INTO_RE.search(text_lines[i]):
            # Find the opening brace of the definition (skip declarations,
            # which hit ';' first).
            depth = 0
            j = i
            opened = False
            open_line = None
            while j < n:
                for ch in text_lines[j]:
                    if not opened:
                        if ch == ";":
                            j = None
                            break
                        if ch == "{":
                            opened = True
                            open_line = j
                            depth = 1
                    else:
                        if ch == "{":
                            depth += 1
                        elif ch == "}":
                            depth -= 1
                            if depth == 0:
                                break
                if j is None or (opened and depth == 0):
                    break
                j += 1
            if j is not None and opened:
                yield i + 1, list(range(open_line + 1, min(j + 1, n)))
                i = j
        i += 1


def section_tags(lines):
    """(name, value, line index) of every SectionTag enumerator in
    declaration order, or None when the enum is missing."""
    start = next((i for i, raw in enumerate(lines)
                  if R9_ENUM_RE.search(strip_comment(raw))), None)
    if start is None:
        return None
    tags = []
    for i in range(start + 1, len(lines)):
        code = strip_comment(lines[i])
        if "}" in code:
            break
        m = R9_ENTRY_RE.match(code)
        if m:
            tags.append((m.group(1), int(m.group(2)), i))
    return tags


def check_section_tags(path, lines, findings):
    rule = "append-only-section-tags"
    tags = section_tags(lines)
    if tags is None:
        findings.append(Finding(rule, path, 1, "",
                                "enum class SectionTag not found"))
        return
    for k, (name, value) in enumerate(R9_FROZEN):
        if k >= len(tags) or tags[k][:2] != (name, value):
            i = tags[k][2] if k < len(tags) else len(lines) - 1
            findings.append(Finding(
                rule, path, i + 1, lines[i] if lines else "",
                f"SectionTag entry {k + 1} must stay {name} = {value}: "
                "on-disk tags are never renumbered, removed or reordered "
                "(DESIGN.md §6)"))
            return
    prev = R9_FROZEN[-1][1]
    for name, value, i in tags[len(R9_FROZEN):]:
        if value <= prev:
            findings.append(Finding(
                rule, path, i + 1, lines[i],
                f"new SectionTag {name} = {value} must append above {prev}"))
        prev = max(prev, value)


def check_file(path, r, lines, findings):
    """Apply every rule to one file (r is the repo-relative path that rule
    allow-lists match against; path is what findings print)."""
    if r not in R1_ALLOWED:
        scan_lines(
            path, lines, "thread-outside-pool", R1_PATTERN,
            "raw std::thread outside common/thread_pool — use the shared "
            "ThreadPool", findings,
        )
    if r not in R2_ALLOWED:
        scan_lines(
            path, lines, "mutex-outside-common", R2_PATTERN,
            "raw std synchronization outside common/mutex.h — use the "
            "annotated common::Mutex/MutexLock/CondVar", findings,
        )
    if r not in R3_ALLOWED:
        scan_lines(
            path, lines, "raw-rng", R3_PATTERN,
            "raw std random engine outside common/rng — use common::Rng",
            findings,
        )
    if r.startswith("src/strategies/"):
        scan_lines(
            path, lines, "alloc-in-kernel", R4_PATTERN,
            "allocation in a decode-kernel file — kernels must stay "
            "allocation-free", findings,
        )
    if r == "src/core/decoder.cc":
        body_linenos = set()
        for _start, linenos in decode_into_bodies(lines):
            body_linenos.update(linenos)
        for idx in sorted(body_linenos):
            raw = lines[idx]
            if R5_PATTERN.search(strip_comment(raw)):
                allow = ALLOW_RE.search(raw)
                if allow and allow.group(1) == "alloc-in-decode-into":
                    continue
                findings.append(Finding(
                    "alloc-in-decode-into", path, idx + 1, raw,
                    "fresh container construction inside a Decode*Into "
                    "body — reuse caller scratch (DESIGN.md §12)",
                ))
    if any(r.startswith(d) for d in R6_DIRS):
        scan_lines(
            path, lines, "wall-clock-in-hot-path", R6_PATTERN,
            "clock read in a decode/query layer — results must be "
            "time-independent; time in callers via common/stopwatch",
            findings,
        )
    if not r.startswith(R7_DIR):
        scan_lines(
            path, lines, "socket-outside-net", R7_PATTERN,
            "socket/poll syscall or networking header outside src/net/ "
            "— the serving tier owns all sockets (DESIGN.md §14)",
            findings,
        )
    if not any(r.startswith(p) for p in R8_ALLOWED_PREFIXES):
        scan_lines(
            path, lines, "adhoc-atomic-counter", R8_PATTERN,
            "integer std::atomic / fetch_add outside src/obs/ and "
            "src/common/ — count through obs::MetricRegistry instruments "
            "so stats are snapshotable and exported (DESIGN.md §15)",
            findings,
        )
    if r == R9_FILE:
        check_section_tags(path, lines, findings)


def check(findings):
    for path in repo_files():
        r = rel(path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        check_file(path, r, lines, findings)


# --- self-test: the rules themselves are load-bearing -----------------------
# Each case is (description, repo-relative path, source text, expected rule
# names). Known-bad snippets must trip exactly the listed rules; known-good
# snippets (allowed location, waiver, or a benign look-alike) must stay
# clean. A rule edit that silently stops matching fails here, not in a
# future PR that reintroduces the banned pattern.

SECTION_TAGS_OK = (
    "enum class SectionTag : uint64_t {\n"
    "  kParams = 1,  // UtcqParams\n"
    "  kTStream = 2,\n"
    "  kRefStream = 3,\n"
    "  kNrefStream = 4,\n"
    "  kStructure = 5,\n"
    "  kMetas = 6,\n"
    "  kStiu = 7,\n"
    "  kShardManifest = 8,\n"
    "  kTSyncIndex = 9,\n"
    "  kStiuV4 = 10,\n"
    "  kStiuParams = 11,\n"
    "  kSyncInterval = 12,\n"
    "};\n"
)

SELF_TEST_CASES = [
    # R1
    ("std::thread outside the pool trips",
     "src/serve/x.cc", "std::thread t(Run);\n", ["thread-outside-pool"]),
    ("<thread> include outside the pool trips",
     "src/core/x.cc", "#include <thread>\n", ["thread-outside-pool"]),
    ("std::thread inside the pool is allowed",
     "src/common/thread_pool.cc", "std::thread t(Run);\n", []),
    ("inline waiver suppresses the finding",
     "src/serve/x.cc",
     "std::thread t(Run);  // repo-lint: allow(thread-outside-pool)\n", []),
    # R2
    ("std::mutex outside common/mutex.h trips",
     "src/core/x.cc", "std::mutex m_;\n", ["mutex-outside-common"]),
    ("<mutex> include outside common/mutex.h trips",
     "src/net/x.cc", "#include <mutex>\n", ["mutex-outside-common"]),
    ("std::mutex inside common/mutex.h is allowed",
     "src/common/mutex.h", "std::mutex m_;\n", []),
    ("the annotated common::Mutex does not trip",
     "src/core/x.cc", "common::Mutex m_;\n", []),
    # R3
    ("std::mt19937 outside common/rng trips",
     "src/ted/x.cc", "std::mt19937 gen(42);\n", ["raw-rng"]),
    ("std::mt19937 inside common/rng is allowed",
     "src/common/rng.cc", "std::mt19937 gen(seed);\n", []),
    # R4
    ("push_back in a kernel TU trips",
     "src/strategies/x.cc", "out.push_back(v);\n", ["alloc-in-kernel"]),
    ("std::vector declaration in a kernel TU trips",
     "src/strategies/x.cc", "std::vector<int> tmp;\n", ["alloc-in-kernel"]),
    ("push_back in the kernels header trips",
     "src/strategies/kernels.h", "  out.push_back(v);\n", ["alloc-in-kernel"]),
    ("resize in the kernels header trips",
     "src/strategies/kernels.h", "  d.entries.resize(n);\n",
     ["alloc-in-kernel"]),
    ("push_back outside the kernels does not trip R4",
     "src/core/x.cc", "out.push_back(v);\n", []),
    # R5
    ("fresh local container inside a Decode*Into body trips",
     "src/core/decoder.cc",
     "void DecodeTimesInto(size_t j, std::vector<int>* out) {\n"
     "  std::vector<int> tmp;\n"
     "}\n",
     ["alloc-in-decode-into"]),
    ("reusing the caller's scratch inside Decode*Into is allowed",
     "src/core/decoder.cc",
     "void DecodeTimesInto(size_t j, std::vector<int>* out) {\n"
     "  out->clear();\n"
     "  out->push_back(1);\n"
     "}\n",
     []),
    ("container parameters in the Decode*Into signature do not trip",
     "src/core/decoder.cc",
     "void DecodeTimesInto(size_t j, std::vector<int>* out);\n", []),
    # R6
    ("steady_clock read in src/core trips",
     "src/core/x.cc",
     "const auto t0 = std::chrono::steady_clock::now();\n",
     ["wall-clock-in-hot-path"]),
    ("steady_clock read in the kernels header trips",
     "src/strategies/kernels.h",
     "  const auto t0 = std::chrono::steady_clock::now();\n",
     ["wall-clock-in-hot-path"]),
    ("clock_gettime in the kernels header trips",
     "src/strategies/kernels.h", "  clock_gettime(CLOCK_MONOTONIC, &ts);\n",
     ["wall-clock-in-hot-path"]),
    ("clock reads in the serving tier are fine",
     "src/serve/x.cc",
     "const auto t0 = std::chrono::steady_clock::now();\n", []),
    # R7
    ("socket header outside src/net trips",
     "src/serve/x.cc", "#include <sys/socket.h>\n", ["socket-outside-net"]),
    ("socket syscall inside src/net is allowed",
     "src/net/x.cc", "const int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n",
     []),
    # R8
    ("integer atomic member outside obs/common trips",
     "src/serve/x.h", "std::atomic<uint64_t> hits_{0};\n",
     ["adhoc-atomic-counter"]),
    ("fetch_add outside obs/common trips",
     "src/net/x.cc",
     "hits_.fetch_add(1, std::memory_order_relaxed);\n",
     ["adhoc-atomic-counter"]),
    ("atomic size_t outside obs/common trips",
     "src/ingest/x.h", "std::atomic<size_t> depth_{0};\n",
     ["adhoc-atomic-counter"]),
    ("atomic bool flag stays legal everywhere",
     "src/net/x.h", "std::atomic<bool> stopping_{false};\n", []),
    ("atomic pointer stays legal everywhere",
     "src/serve/x.h",
     "std::atomic<const Snapshot*> current_{nullptr};\n", []),
    ("obs::Counter inside src/obs keeps its atomic",
     "src/obs/metrics.h",
     "  void Add(uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }\n",
     []),
    ("the pool's pending count stays legal",
     "src/common/thread_pool.cc",
     "pending_.fetch_add(1, std::memory_order_release);\n", []),
    # R9
    ("the section tags as shipped are clean",
     R9_FILE, SECTION_TAGS_OK, []),
    ("a new tag appended above the last is clean",
     R9_FILE, SECTION_TAGS_OK.replace(
         "};", "  kFuture = 13,  // a later section\n};"), []),
    ("a renumbered tag trips",
     R9_FILE, SECTION_TAGS_OK.replace("kStiu = 7,", "kStiu = 12,"),
     ["append-only-section-tags"]),
    ("renumbering the sync-interval tag trips",
     R9_FILE, SECTION_TAGS_OK.replace("kSyncInterval = 12,",
                                      "kSyncInterval = 13,"),
     ["append-only-section-tags"]),
    ("a removed tag trips",
     R9_FILE, SECTION_TAGS_OK.replace("  kShardManifest = 8,\n", ""),
     ["append-only-section-tags"]),
    ("a new tag reusing an old value trips",
     R9_FILE, SECTION_TAGS_OK.replace("};", "  kFuture = 4,\n};"),
     ["append-only-section-tags"]),
    ("a missing SectionTag enum trips",
     R9_FILE, "namespace utcq::archive {}\n", ["append-only-section-tags"]),
]


def self_test():
    failures = 0
    for description, r, source, expected in SELF_TEST_CASES:
        findings = []
        check_file(r, r, source.splitlines(), findings)
        got = sorted({f.rule for f in findings})
        if got != sorted(expected):
            failures += 1
            print(f"FAIL {description}\n"
                  f"     path {r}: expected {sorted(expected)}, got {got}")
        else:
            print(f"ok   {description}")
    if failures:
        print(f"\nrepo_lint --self-test: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print(f"repo_lint --self-test: {len(SELF_TEST_CASES)} cases passed")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    findings = []
    check(findings)
    if findings:
        for f in findings:
            print(f)
        print(f"\nrepo_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("repo_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
