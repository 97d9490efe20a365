#!/usr/bin/env python3
"""Repository lint for the determinism discipline (CI-blocking).

The simulator derives every result from virtual time, so the rules here are
not style: each one closes a door through which host nondeterminism could
leak into simulated results.

  no-wall-clock        src/sim and src/core must not read host clocks or
                       host randomness (system_clock, rand, ...). Virtual
                       time and seeded generators only.
  no-host-threading    OS threading primitives are confined to the host-side
                       sweep driver (src/core/experiment.*), the annotated
                       lock wrappers (src/util/mutex.h) and the engines that
                       are host-threaded by design (src/native/, src/serve/,
                       src/obs/). The simulator, scheduler included, runs
                       on fibers of one thread and synchronizes in virtual
                       time, never with a mutex.
  no-mutable-globals   File-scope mutable state in src/ is shared between
                       concurrently simulated runs on the experiment driver
                       and is invisible to the access registry. Const,
                       constexpr, or explicitly annotated state only
                       ("// psj-lint: global-ok(<reason>)").
  no-raw-intrinsics    <immintrin.h> (and the narrower x86 intrinsic
                       headers) may only be included under src/geo/, where
                       the SIMD kernels live behind scalar-equivalent
                       wrappers. Everywhere else in src/ must call the
                       wrappers so the scalar fallback stays the single
                       source of truth for results.
  runtime-isa          One SIMD dispatch scheme: src/ never tests an x86
                       extension beyond the x86-64 baseline in the
                       preprocessor (__AVX__, __AVX2__, __AVX512*__,
                       __FMA__, __SSE3__, __SSSE3__, __SSE4_1__,
                       __SSE4_2__, __BMI2__), which would make a kernel's
                       ISA a build option. Wider kernels are compiled per
                       function with __attribute__((target(...))) and
                       picked at run time, as geo/node_scan.cc does;
                       __SSE2__ and __x86_64__ stay legal.
  no-tracked-build     No tracked path may start with "build" (anchored;
                       bench/ablation_tree_build.cc is fine).
  golden-schema        Committed golden/*.json baselines must be valid JSON
                       carrying the versioned figure-schema tag
                       ("schema": "psj-...") so the diff engine can refuse
                       incompatible documents instead of misreading them.
  sealed-phase         A receiver that called Seal() must not reach a
                       structural mutator (Insert/Delete/mutable_node/
                       AllocateNode/FreeNode) later in the same function
                       without an intervening Thaw(). This is the static
                       twin of the PSJ_DCHECK_PHASE runtime guard in
                       RStarTree; escape with
                       "// psj-lint: phase-ok(<reason>)".
  memory-order-audit   Every explicit std::memory_order_* argument needs an
                       adjacent "order: <why>" rationale comment, and inside
                       src/native/ + src/serve/ + src/obs/ every atomic
                       operation must spell its order explicitly — a bare
                       (seq_cst) default there is either an unjustified
                       fence or an undocumented requirement.
  sealed-reads         The engines (src/core, src/join, src/native,
                       src/serve) read nodes only through the sealed SoA
                       image (RStarTree::sealed()): no .node( / ->node(
                       call and no RTreeNode there. The AoS node is the
                       build and persistence image of src/rtree; RTreeEntry
                       stays legal as the partition join's input type.
  sim-reads-plan       The simulated join (src/core/parallel_join.cc)
                       charges virtual time for geometry it reads from the
                       JoinPlan: no MatchNodeEntriesSoA, MatchNodePages,
                       SecondFilter or .geometry/->geometry there, so node
                       matching, the second filter and the exact polyline
                       test run once per plan (src/core/join_plan.cc), not
                       once per simulated configuration.
  flat-objects         src/ keeps each map's geometry flat: no
                       std::vector<MapObject>, std::vector<Polyline>,
                       std::vector<std::vector<Point>> or
                       std::vector<std::vector<Rect>>, each of which is
                       one heap block per object. An ObjectStore holds a
                       map as one point array plus offsets, and per-object
                       rectangles (SecondFilter's sections) live the same
                       way.
  metric-names         Every metric registered through the obs registry
                       (DefineCounter/DefineGauge/DefineHistogram with a
                       string literal) is snake_case with a unit suffix:
                       "_us" for microsecond durations, "_bytes" for sizes,
                       "_count" for dimensionless tallies and gauges. Keeps
                       the exported Prometheus/JSON series uniform and
                       machine-filterable.
  micro-in-ci          A micro bench stays only while it guards a contract
                       in CI: every bench/micro_*.cc is named by a step of
                       .github/workflows/ci.yml (comment lines do not
                       count). End-to-end and per-layer numbers come from
                       perfbench, so a harness no CI step runs is a second
                       path to delete, not to keep.

Usage: python3 tools/psj_lint.py [--root REPO] [FILES...]
With FILES, only those files are checked (the CI changed-files mode);
no-tracked-build, golden-schema and micro-in-ci always inspect the whole
tree.
Exit 0 = clean.
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

WALL_CLOCK_DIRS = ("src/sim", "src/core")
WALL_CLOCK_TOKENS = [
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "std::rand",
    "srand(",
    "random_device",
    "std::time(",
]

THREADING_DIRS = ("src",)
THREADING_ALLOWLIST = (
    # The experiment driver runs independent simulations on host threads.
    "src/core/experiment.h",
    "src/core/experiment.cc",
    # The annotated Mutex/MutexLock/CondVar wrappers every host-threaded
    # subsystem locks through (the only place raw std primitives may live).
    "src/util/mutex.h",
)
# Whole directories where host threading is the point, not a leak. Each entry
# must end with "/" so "src/nativefoo.cc" never matches "src/native/".
THREADING_ALLOWLIST_DIRS = (
    # The native multicore backend: real worker threads over in-memory
    # trees, wall-clock timed by design. It shares no state with the
    # simulator beyond read-only trees and the pure task builder.
    "src/native/",
    # The serving layer: a real worker pool with bounded admission queues
    # and condition-variable batching over sealed (read-only) trees.
    "src/serve/",
    # The observability layer: sharded atomic metric cells fed by the two
    # host-threaded engines above, plus the periodic reporter thread.
    "src/obs/",
)
THREADING_TOKENS = [
    "std::thread",
    "std::jthread",
    "std::mutex",
    "std::shared_mutex",
    "std::condition_variable",
    "std::atomic",
    "<thread>",
    "<mutex>",
    "<atomic>",
    "<shared_mutex>",
]

INTRINSICS_DIRS = ("src",)
# The SIMD kernel layer: raw intrinsics are implemented here, behind
# wrappers with scalar-equivalent semantics. Directory prefix, "/"-anchored.
INTRINSICS_ALLOWLIST_DIRS = ("src/geo/",)
INTRINSICS_TOKENS = [
    "<immintrin.h>",
    "<emmintrin.h>",
    "<smmintrin.h>",
    "<avxintrin.h>",
    "<avx2intrin.h>",
    "<x86intrin.h>",
]

# runtime-isa: a compile-time test of an extension past the x86-64
# baseline. Word-anchored so __SSE2__ and __x86_64__ never match.
RUNTIME_ISA_DIRS = ("src",)
RUNTIME_ISA_MACRO = re.compile(
    r"\b__(?:AVX\w*|FMA|SSE3|SSSE3|SSE4_1|SSE4_2|BMI2)__\b"
)

GLOBAL_DIRS = ("src",)
GLOBAL_ALLOWLIST = (
    # Sanitizer fiber-switch bookkeeping: inherently per-host-thread state.
    "src/sim/fiber_context.cc",
)
GLOBAL_OK_MARK = "psj-lint: global-ok"
# File-scope definitions start in column 0; function-local statics are
# indented. constexpr/const/functions/types are filtered below.
GLOBAL_DEF = re.compile(r"^(static|thread_local)\b")
GLOBAL_IMMUTABLE = re.compile(r"\b(const|constexpr|constinit)\b")
GLOBAL_NOT_A_VARIABLE = re.compile(r"\b(void|struct|class|enum|union)\b|\)\s*[{;]")

# sealed-phase: receiver-tracked Seal()/Thaw()/mutator calls. The rule is a
# per-function heuristic — the receiver set resets at every column-0 "}" —
# so cross-function flows are the runtime guard's job (PSJ_DCHECK_PHASE).
PHASE_DIRS = ("src", "tests", "bench", "examples")
PHASE_OK_MARK = "psj-lint: phase-ok"
PHASE_SEAL = re.compile(r"\b(\w+)(?:\.|->)Seal\(\)")
PHASE_THAW = re.compile(r"\b(\w+)(?:\.|->)Thaw\(\)")
PHASE_MUTATOR = re.compile(
    r"\b(\w+)(?:\.|->)(Insert|Delete|mutable_node|AllocateNode|FreeNode)\("
)

# sealed-reads: the engine directories read the sealed node image only.
# Directory prefixes, "/"-anchored.
SEALED_READ_DIRS = ("src/core/", "src/join/", "src/native/", "src/serve/")
SEALED_READ_TOKEN = re.compile(r"(?:\.|->)node\(|\bRTreeNode\b")

# sim-reads-plan: the simulated join computes no geometry; the join plan
# does, once per plan key.
SIM_READS_PLAN_FILES = ("src/core/parallel_join.cc",)
SIM_READS_PLAN_TOKEN = re.compile(
    r"\b(?:MatchNodeEntriesSoA|MatchNodePages|SecondFilter)\b"
    r"|(?:\.|->)geometry\b"
)

# flat-objects: per-object heap blocks of geometry in src/.
FLAT_OBJECTS_DIRS = ("src/",)
FLAT_OBJECTS_TOKEN = re.compile(
    r"std::vector\s*<\s*(?:MapObject|Polyline"
    r"|std::vector\s*<\s*(?:Point|Rect)\s*>)\s*>"
)

# memory-order-audit: explicit orders need a rationale comment; the
# native-threaded directories may not fall back to the seq_cst default.
MEMORY_ORDER_DIRS = ("src", "tests", "bench", "examples")
MEMORY_ORDER_EXPLICIT = re.compile(r"std::memory_order_\w+")
ATOMIC_DEFAULT_DIRS = ("src/native/", "src/serve/", "src/obs/")
ATOMIC_OP = re.compile(
    r"\.(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"exchange|compare_exchange_weak|compare_exchange_strong)\s*\("
)
ORDER_RATIONALE_MARK = "order:"

# metric-names: Define* call sites with a string literal must register
# snake_case names carrying a unit suffix. Single-line heuristic —
# clang-format keeps the call and its literal together at these lengths.
METRIC_NAME_DIRS = ("src", "tests", "bench", "examples", "tools")
METRIC_DEFINE = re.compile(
    r"\bDefine(?:Counter|Gauge|Histogram)\(\s*\"([^\"]*)\""
)
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(_us|_bytes|_count)$")

# micro-in-ci: the micro benches, and the workflow whose steps must name
# each of them.
MICRO_BENCH = re.compile(r"^bench/(micro_\w+)\.cc$")
CI_WORKFLOW = ".github/workflows/ci.yml"

CXX_SUFFIXES = {".cc", ".h"}


def strip_comments(line, in_block):
    """Removes // and /* */ comment text; returns (code, still_in_block)."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            in_block = True
            i += 2
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def has_order_rationale(raw_lines, idx):
    """True when line idx (0-based) carries an "order:" comment — inline,
    anywhere in the statement it continues (a previous line ending in a
    continuation token), or in the contiguous comment block above the
    statement's first line."""
    start = idx
    while start > 0 and raw_lines[start - 1].rstrip().endswith(
        ("(", ",", "=", "+", "-", "&&", "||", "?", ":")
    ):
        start -= 1
    if any(ORDER_RATIONALE_MARK in raw_lines[j] for j in range(start, idx + 1)):
        return True
    j = start - 1
    while j >= 0 and raw_lines[j].strip().startswith("//"):
        if ORDER_RATIONALE_MARK in raw_lines[j]:
            return True
        j -= 1
    return False


def lint_file(path, rel, errors):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        errors.append(f"{rel}: unreadable: {err}")
        return
    raw_lines = text.splitlines()
    in_block = False
    sealed = set()  # Receivers .Seal()ed in the current function.
    for lineno, raw in enumerate(raw_lines, start=1):
        code, in_block = strip_comments(raw, in_block)
        if rel.startswith(PHASE_DIRS) and code.startswith("}"):
            sealed.clear()  # Column-0 brace: a function (or type) ended.
        if not code.strip():
            continue

        def report(rule, token):
            errors.append(f"{rel}:{lineno}: [{rule}] '{token}' — {raw.strip()}")

        if rel.startswith(WALL_CLOCK_DIRS):
            for token in WALL_CLOCK_TOKENS:
                if token in code:
                    report("no-wall-clock", token)
        if (
            rel.startswith(THREADING_DIRS)
            and rel not in THREADING_ALLOWLIST
            and not rel.startswith(THREADING_ALLOWLIST_DIRS)
        ):
            for token in THREADING_TOKENS:
                if token in code:
                    report("no-host-threading", token)
        if rel.startswith(INTRINSICS_DIRS) and not rel.startswith(
            INTRINSICS_ALLOWLIST_DIRS
        ):
            for token in INTRINSICS_TOKENS:
                if token in code:
                    report("no-raw-intrinsics", token)
        if rel.startswith(RUNTIME_ISA_DIRS):
            for match in RUNTIME_ISA_MACRO.finditer(code):
                report("runtime-isa", match.group(0))
        if (
            rel.startswith(GLOBAL_DIRS)
            and rel not in GLOBAL_ALLOWLIST
            and GLOBAL_OK_MARK not in raw
            and GLOBAL_DEF.match(code)
            and not GLOBAL_IMMUTABLE.search(code)
            and not GLOBAL_NOT_A_VARIABLE.search(code)
        ):
            report("no-mutable-globals", code.split()[0])
        if rel.startswith(PHASE_DIRS):
            for match in PHASE_MUTATOR.finditer(code):
                receiver, mutator = match.group(1), match.group(2)
                if receiver in sealed and PHASE_OK_MARK not in raw:
                    report(
                        "sealed-phase",
                        f"{receiver}.{mutator}",
                    )
            for match in PHASE_SEAL.finditer(code):
                sealed.add(match.group(1))
            for match in PHASE_THAW.finditer(code):
                sealed.discard(match.group(1))
        if rel.startswith(SEALED_READ_DIRS):
            for match in SEALED_READ_TOKEN.finditer(code):
                report("sealed-reads", match.group(0))
        if rel in SIM_READS_PLAN_FILES:
            for match in SIM_READS_PLAN_TOKEN.finditer(code):
                report("sim-reads-plan", match.group(0))
        if rel.startswith(FLAT_OBJECTS_DIRS):
            for match in FLAT_OBJECTS_TOKEN.finditer(code):
                report("flat-objects", match.group(0))
        if rel.startswith(MEMORY_ORDER_DIRS):
            explicit = MEMORY_ORDER_EXPLICIT.search(code)
            if explicit and not has_order_rationale(raw_lines, lineno - 1):
                report("memory-order-audit", explicit.group(0))
            elif (
                not explicit
                and rel.startswith(ATOMIC_DEFAULT_DIRS)
                and ATOMIC_OP.search(code)
                and "memory_order" not in code
                and not has_order_rationale(raw_lines, lineno - 1)
            ):
                report("memory-order-audit", ATOMIC_OP.search(code).group(0))
        if rel.startswith(METRIC_NAME_DIRS):
            for match in METRIC_DEFINE.finditer(code):
                if not METRIC_NAME.match(match.group(1)):
                    report("metric-names", f'"{match.group(1)}"')


def lint_golden_schema(root, errors):
    """Every committed golden baseline must be schema-versioned JSON."""
    for path in sorted(root.glob("golden/*.json")):
        rel = path.relative_to(root).as_posix()
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            errors.append(f"{rel}: [golden-schema] unreadable JSON: {err}")
            continue
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if not isinstance(schema, str) or not schema.startswith("psj-"):
            errors.append(
                f"{rel}: [golden-schema] missing versioned schema tag "
                f'("schema": "psj-..."); regenerate with '
                "'psj_cli report --update-goldens'"
            )


def lint_micro_in_ci(bench_sources, ci_text, errors):
    """Every micro bench among `bench_sources` (paths relative to the repo
    root) must be named by a non-comment line of the CI workflow text."""
    steps = "\n".join(
        line for line in ci_text.splitlines() if not line.lstrip().startswith("#")
    )
    for rel in bench_sources:
        match = MICRO_BENCH.match(rel)
        if match and not re.search(rf"\b{match.group(1)}\b", steps):
            errors.append(
                f"{rel}: [micro-in-ci] no step of {CI_WORKFLOW} runs "
                f"{match.group(1)}; a micro bench stays only while CI runs it"
            )


def lint_tracked_build_trees(root, errors):
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=root,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        return  # Not a git checkout (e.g. an export); nothing to check.
    for tracked in proc.stdout.splitlines():
        if tracked.startswith("build"):
            errors.append(f"{tracked}: [no-tracked-build] tracked build-tree path")


def self_test():
    """Checks the rules against known-good and known-bad snippets.

    Guards the allowlists themselves: a typo that silently disabled a rule
    (or blanket-allowed a directory) would otherwise only show up as CI
    passing code it should reject.
    """
    import tempfile

    cases = [
        # (file path relative to the repo root, content, expected rule or None)
        ("src/join/x.cc", "#include <thread>\n", "no-host-threading"),
        ("src/join/x.cc", "std::mutex mu;\n", "no-host-threading"),
        # The scheduler runs every process as a fiber of one thread.
        ("src/sim/simulation.cc", "#include <thread>\n", "no-host-threading"),
        # The native backend directory is allowlisted for threading…
        ("src/native/x.cc", "#include <thread>\nstd::atomic<int> n;\n", None),
        # …but the allowlist is the directory, not the prefix string.
        ("src/native_like.cc", "#include <thread>\n", "no-host-threading"),
        # …and only for threading: mutable globals stay banned there.
        ("src/native/x.cc", "static int hits = 0;\n", "no-mutable-globals"),
        ("src/core/x.cc", "steady_clock::now();\n", "no-wall-clock"),
        # Wall clocks are legal outside src/sim + src/core (native included).
        ("src/native/x.cc", "steady_clock::now();\n", None),
        # The serving layer is allowlisted for threading and wall clocks…
        ("src/serve/x.cc", "#include <thread>\nstd::mutex mu;\n", None),
        ("src/serve/x.cc", "steady_clock::now();\n", None),
        # …but the allowlist is the directory, not the prefix string…
        ("src/serve_like.cc", "#include <thread>\n", "no-host-threading"),
        # …and only for threading: mutable globals stay banned there.
        ("src/serve/x.cc", "static int hits = 0;\n", "no-mutable-globals"),
        ("src/join/x.cc", "// std::thread only in a comment\n", None),
        # Raw x86 intrinsics live only under src/geo/; everyone else goes
        # through the wrappers there.
        ("src/join/x.cc", "#include <immintrin.h>\n", "no-raw-intrinsics"),
        ("src/rtree/x.cc", "#include <emmintrin.h>\n", "no-raw-intrinsics"),
        ("src/geo/node_scan.cc", "#include <immintrin.h>\n", None),
        # The allowlist is the directory, not the prefix string.
        ("src/geometry.cc", "#include <immintrin.h>\n", "no-raw-intrinsics"),
        ("src/join/x.cc", "// <immintrin.h> only in a comment\n", None),
        # runtime-isa: a kernel whose ISA a build flag picks is a
        # violation…
        (
            "src/geo/x.cc",
            "#if defined(__AVX2__)\nconstexpr int kWidth = 4;\n"
            "#elif defined(__AVX512F__)\nconstexpr int kWidth = 8;\n#endif\n",
            "runtime-isa",
        ),
        # …while the x86-64 baseline, per-function targets picked at run
        # time, and comments naming the macros are clean.
        (
            "src/geo/x.cc",
            "#if defined(__x86_64__) && defined(__SSE2__)\n"
            "// Not #if defined(__AVX2__): the CPU decides at run time.\n"
            '__attribute__((target("avx2"))) void ScanAvx2();\n'
            "#endif\n",
            None,
        ),
        # The annotated wrapper layer is the one legal home for raw
        # std::mutex…
        ("src/util/mutex.h", "#include <mutex>\nstd::mutex mu_;\n", None),
        # …and the allowlist is that exact file, not the directory.
        ("src/util/other.h", "#include <mutex>\n", "no-host-threading"),
        # sealed-phase: mutating a receiver that Seal()ed earlier in the
        # same function is a violation…
        (
            "src/join/x.cc",
            "void F() {\n  t.Seal();\n  t.Insert(r, 1);\n}\n",
            "sealed-phase",
        ),
        (
            "tests/x_test.cc",
            "TEST(T, M) {\n  tree.Seal();\n  tree.mutable_node(1);\n}\n",
            "sealed-phase",
        ),
        # …unless a Thaw() intervenes…
        (
            "src/join/x.cc",
            "void F() {\n  t.Seal();\n  t.Thaw();\n  t.Insert(r, 1);\n}\n",
            None,
        ),
        # …or the site is explicitly annotated…
        (
            "src/join/x.cc",
            "void F() {\n  t.Seal();\n"
            "  t.Insert(r, 1);  // psj-lint: phase-ok(rebuild fixture)\n}\n",
            None,
        ),
        # …and the receiver set resets at function scope: Seal() in one
        # function does not taint mutators in the next.
        (
            "src/join/x.cc",
            "void F() {\n  t.Seal();\n}\nvoid G() {\n  t.Insert(r, 1);\n}\n",
            None,
        ),
        # A different receiver is not confused with the sealed one.
        (
            "src/join/x.cc",
            "void F() {\n  a.Seal();\n  b.Insert(r, 1);\n}\n",
            None,
        ),
        # sealed-reads: an engine reading the AoS node is a violation…
        (
            "src/native/x.cc",
            "const RTreeNode& n = tree_r_.node(pair.page_r);\n",
            "sealed-reads",
        ),
        (
            "src/core/x.cc",
            "Rect mbr = tree->node(p).ComputeMbr();\n",
            "sealed-reads",
        ),
        # …while views, RTreeEntry and comments are clean…
        (
            "src/serve/x.cc",
            "// Never tree.node(page): the RTreeNode is the build image.\n"
            "const NodeSoAView v = tree.sealed().view(page);\n"
            "std::vector<RTreeEntry> entries;\n",
            None,
        ),
        # …and src/rtree, which builds and persists the AoS node, is exempt.
        ("src/rtree/x.cc", "const RTreeNode& n = node(root_page_);\n", None),
        # sim-reads-plan: the simulated join matching nodes or testing
        # polylines itself is a violation…
        (
            "src/core/parallel_join.cc",
            "const auto matches = MatchNodeEntriesSoA(nr, ns, options_);\n"
            "if (SecondFilter::CanIntersect(a, b, &tests)) {\n"
            "  hit = objects_r_->Get(id_r).geometry.Intersects(g);\n"
            "}\n",
            "sim-reads-plan",
        ),
        # …while reading the plan, and comments naming the old calls, are
        # clean; the plan builder itself is exempt.
        (
            "src/core/parallel_join.cc",
            "// Not MatchNodeEntriesSoA or SecondFilter: the plan has them.\n"
            "for (const JoinPlan::Candidate& c : plan_.candidates(pair)) {\n"
            "  if (c.is_answer) ++answers;\n"
            "}\n",
            None,
        ),
        (
            "src/core/join_plan.cc",
            "const auto matches = MatchNodeEntriesSoA(nr, ns, options);\n",
            None,
        ),
        # flat-objects: one heap block per object's geometry in src/ is a
        # violation…
        (
            "src/data/x.cc",
            "std::vector<MapObject> objects;\n"
            "objects.push_back(MapObject{id, Polyline(std::move(points))});\n",
            "flat-objects",
        ),
        ("src/join/x.h", "std::vector<std::vector<Rect>> sections_;\n",
         "flat-objects"),
        ("src/data/x.h", "std::vector< std::vector<Point> > paths;\n",
         "flat-objects"),
        # …while a flat store, comments naming the old layout, and tests
        # building geometry by hand are clean.
        (
            "src/data/x.h",
            "// Not std::vector<MapObject>: one array and offsets.\n"
            "std::vector<Point> points_;\n"
            "std::vector<uint32_t> offsets_;\n"
            "std::vector<Rect> sections_;\n",
            None,
        ),
        ("tests/x_test.cc", "std::vector<Polyline> lines;\n", None),
        # memory-order-audit: explicit orders need an adjacent "order:"
        # rationale comment…
        (
            "src/join/x.cc",
            "n.fetch_add(1, std::memory_order_relaxed);\n",
            "memory-order-audit",
        ),
        (
            "src/join/x.cc",
            "// order: relaxed — pure tally, no publication.\n"
            "n.fetch_add(1, std::memory_order_relaxed);\n",
            None,
        ),
        # …reaching through a multi-line comment block…
        (
            "src/native/x.cc",
            "// order: release — pairs with the acquire load in Done()\n"
            "// so the observer of zero sees the finished items.\n"
            "n.fetch_sub(1, std::memory_order_release);\n",
            None,
        ),
        # …and in src/native/ + src/serve/ the bare seq_cst default is a
        # violation too (tighten it or justify it)…
        ("src/native/x.cc", "n.fetch_add(1);\n", "memory-order-audit"),
        ("src/serve/x.cc", "flag.store(true);\n", "memory-order-audit"),
        (
            "src/serve/x.cc",
            "// order: seq_cst required — total order with stop flag.\n"
            "flag.store(true);\n",
            None,
        ),
        # …while elsewhere the default order stays legal.
        ("src/core/x.cc", "n.fetch_add(1);\n", None),
        # The observability layer is allowlisted for threading and wall
        # clocks…
        ("src/obs/x.cc", "#include <atomic>\nstd::atomic<int> n;\n", None),
        ("src/obs/x.cc", "steady_clock::now();\n", None),
        # …but the allowlist is the directory, not the prefix string…
        ("src/observer.cc", "#include <thread>\n", "no-host-threading"),
        # …and its atomics must spell their order like the other
        # host-threaded directories.
        ("src/obs/x.cc", "n.fetch_add(1);\n", "memory-order-audit"),
        # metric-names: snake_case with a unit suffix is clean…
        ("src/serve/x.cc", 'm.DefineCounter("serve_ops_count");\n', None),
        ("src/obs/x.cc", 'm.DefineHistogram("obs_latency_us");\n', None),
        ("tools/x.cc", 'r.DefineGauge("rtree_seal_us");\n', None),
        ("bench/x.cc", 'r.DefineCounter("bench_io_bytes");\n', None),
        # …camelCase, missing suffix, and bad leading characters are not…
        ("src/serve/x.cc", 'm.DefineCounter("serveOps_count");\n', "metric-names"),
        ("src/serve/x.cc", 'm.DefineHistogram("serve_latency");\n', "metric-names"),
        ("src/obs/x.cc", 'm.DefineGauge("_depth_count");\n', "metric-names"),
        # …and a commented-out call site does not fire.
        ("src/join/x.cc", '// m.DefineCounter("badName")\n', None),
    ]
    # micro-in-ci: (bench sources, CI workflow text, the sources it flags).
    ci_cases = [
        # A micro bench that a CI step runs is clean…
        (
            ["bench/micro_kernels.cc"],
            "      - run: ./build/bench/micro_kernels --smoke k.json\n",
            [],
        ),
        # …one that no step names is flagged, even where a comment names it…
        (
            ["bench/micro_sim.cc"],
            "      # micro_sim timed the scheduler.\n      - run: ctest\n",
            ["bench/micro_sim.cc"],
        ),
        # …and a harness that is not a micro bench needs no step.
        (["bench/serve_qps.cc"], "      - run: ctest\n", []),
    ]
    failures = []
    for i, (sources, ci_text, flagged) in enumerate(ci_cases):
        errors = []
        lint_micro_in_ci(sources, ci_text, errors)
        got = [e.split(":")[0] for e in errors if "[micro-in-ci]" in e]
        if got != flagged:
            failures.append(f"ci case {i}: expected {flagged}, got {errors}")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (rel, content, rule) in enumerate(cases):
            path = pathlib.Path(tmp) / f"case{i}.cc"
            path.write_text(content, encoding="utf-8")
            errors = []
            lint_file(path, rel, errors)
            if rule is None and errors:
                failures.append(f"case {i} ({rel!r}): unexpected {errors}")
            elif rule is not None and not any(f"[{rule}]" in e for e in errors):
                failures.append(
                    f"case {i} ({rel!r}): expected [{rule}], got {errors}"
                )
    if failures:
        print(f"psj_lint --self-test: {len(failures)} failure(s)", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"psj_lint --self-test: {len(cases) + len(ci_cases)} cases ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the lint rules against built-in samples and exit",
    )
    parser.add_argument("files", nargs="*", help="restrict to these files")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root).resolve()

    if args.files:
        candidates = [pathlib.Path(f) for f in args.files]
    else:
        # src rules are dir-scoped internally; the wider sweep exists for the
        # rules that also police tests/bench/examples (sealed-phase,
        # memory-order-audit).
        candidates = []
        for top in ("src", "tests", "bench", "examples", "tools"):
            candidates.extend(sorted(root.glob(f"{top}/**/*")))
    errors = []
    for path in candidates:
        path = path if path.is_absolute() else root / path
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        lint_file(path, rel, errors)
    lint_golden_schema(root, errors)
    workflow = root / CI_WORKFLOW
    lint_micro_in_ci(
        [p.relative_to(root).as_posix() for p in sorted(root.glob("bench/*.cc"))],
        workflow.read_text(encoding="utf-8") if workflow.is_file() else "",
        errors,
    )
    lint_tracked_build_trees(root, errors)

    if errors:
        print(f"psj_lint: {len(errors)} violation(s)", file=sys.stderr)
        for line in errors:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("psj_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
