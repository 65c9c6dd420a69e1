#!/usr/bin/env python3
"""Coverage ledger: which src/ code does the user pipeline never reach?

Builds the repository with `-O1 --coverage` in BUILD_DIR, drives it
through the user pipeline only (no unit tests), and reads the counters
with `gcov --json-format`. For every src/ file it prints the blocks of
executable lines no pipeline command reached, except error paths,
short input-check exits and structure lines (braces, signatures). Each
printed block carries one label:
  kept:    a curated reason it stays (a user outside the pipeline, or a
           test that observes live behaviour through it);
  branch:  a branch (or lambda) of a function the pipeline reached,
           skipped by its inputs (the condition above it is shown);
  NO USER: a function the pipeline never entered and no curated reason
           keeps: delete it, or name its user in KEPT.

The pipeline:
  * `simulate` of every examples/scenarios/*.json, saved as v3, with
    `--monitor`, and flag-built IOR ensembles on each machine preset
    (one with `--obs-summary`, `--metrics` and `--chrome-trace`);
  * every trace command on each scenario's run0, as v3 (`--jobs=2`)
    and as TSV (`--jobs=1`), with the filter, `--json`, `--log`,
    `--obs`, `--obs-summary`, `--metrics` and `--chrome-trace` flags on
    some of them (`analyze --monitor` among them, so incident instants
    land on the Chrome trace);
  * `compare`, `convert` (v3 -> TSV -> v3), `help`, and
    `campaign examples/sweeps/ior_seed_scale.json --workers=2` (once
    plain, once with an injected worker crash), plus a directory
    manifest with `--plan-only`;
  * the figure and ablation benches (with EIO_BENCH_CSV set, so they
    dump CSV too) and the examples.

Each line's count is its maximum over translation units, because a
header compiles into many. Needs cmake, a C++ compiler with gcov and
python3; nothing else.

Usage:
  tools/coverage_ledger.py BUILD_DIR

The build and the pipeline use every CPU. Exits non-zero when the
build, a pipeline command or gcov fails, or when a block has NO USER.
"""

import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
JOBS = os.cpu_count() or 1

FIGURE_BENCHES = [
    "fig1_ior_modes", "fig2_lln_splitting", "fig4_madbench_platforms",
    "fig5_readahead_patch", "fig6_gcrm_optimizations", "ensemble_stability",
    "ablation_contention", "ablation_interference",
    "ablation_profile_fidelity", "ablation_slow_ost", "ablation_scheduler",
]
EXAMPLES = ["quickstart", "ior_study", "madbench_study", "gcrm_study",
            "custom_workload"]
OST_COUNT = {"franklin": 48, "franklin-patched": 48, "jaguar": 144}
COMPARE_PAIRS = [("fig4_madbench_franklin", "fig5_madbench_patched"),
                 ("fig6_gcrm_baseline", "fig6_gcrm_optimized")]

# Unreached code that stays, matched against the enclosing function's
# demangled name. Each entry names the user that keeps it.
KEPT = [
    (r"^eio::sim::FluidNetwork::(flow_rate|ost_flow_count|ost_client_count|"
     r"node_granted|node_waiting|dead_flow|flow_active)\(",
     "FluidNetwork accessor: tests observe live flow state through it"),
    (r"^eio::lustre::Filesystem::(residue|layout)\(",
     "tests observe live cache residue and file layout through it"),
    (r"^eio::ipm::Profile::count\(",
     "tests observe the live profile through it"),
    (r"^eio::ipm::DurationBins::lower_edge\(",
     "tests check the profile's bin edges through it"),
    (r"^eio::stats::Histogram::bin_width\(",
     "tests check log-axis binning through it"),
    (r"^eio::analysis::TimeSeries::(integral|max_value)\(",
     "tests check the rate series through it"),
    (r"^eio::analysis::TraceDiagram::(write_fraction|read_fraction)\(",
     "tests check the raster through it"),
    (r"^eio::ipm::TraceSource::event_count\(",
     "tests check chunk indexes through it"),
    (r"^eio::mpi::Runtime::(run_to_completion|finish_time)\(",
     "tests drive and observe the MPI runtime through it"),
    (r"^eio::ipm::Trace::save_binary_v3\(",
     "perfbench/gcrm_sim.cpp saves its v3 trace with it"),
    (r"^eio::ipm::Trace::(load|read_binary)\(",
     "examples/madbench_study.cpp reloads its trace with load; "
     "read_binary is load's v3 branch, which tests reach"),
    (r"^eio::stats::ReservoirSampler::merge\(",
     "weighted merge: campaign roll-ups can reach it (ROADMAP item 4)"),
    (r"^eio::stats::StreamingHistogram::add\(",
     "a v3 chunk of more than exact_capacity matching rows (the format "
     "allows any chunk size) fills through it; "
     "tests/core/histogram_test.cpp fills past capacity through it"),
    (r"^eio::monitor::HealthKernel::Segment::append\(",
     "kernel contract: partials merge in any grouping, not only into "
     "chunk 0's (DESIGN.md, health kernel; tests merge right to left)"),
    (r"^eio::json::detail::Parser::append_utf8\(",
     "\\u escapes in user scenario and sweep JSON; tests parse them"),
    (r"^eio::ipm::Trace::Trace\(",
     "tests build their fixture traces with it"),
]
KEPT_FILES = [
    ("src/core/order_stats.", "the paper's Eq. (1); examples/ior_study.cpp "
     "calls max_order_cdf"),
]

# A block is an error path when the condition line just above it
# reads like one (a failed call, a catch), or when it is short and
# acts like one: throws, reports to stderr, exits non-zero. An
# EIO_CHECK is no sign either way: its failure branch has no line.
ERROR_RE = re.compile(
    r"\bthrow\b|\bcatch\b|\berr(or)?\s*<<|\bes\(\)\s*<<|std::cerr|"
    r"\breturn\s+[12]\s*;|std::abort|_exit\(|\bmalformed\(|\bfail\w*\(|"
    r"\breject\w*\(|\bbad_\w+\(|runtime_error|invalid_argument|logic_error|"
    r"out_of_range|errno|\.fail\(\)|!\s*\w+\.good\(\)")
# An input check: a short early exit right under its condition.
EXIT_RE = re.compile(r"^\s*(return\b[^;]*;|continue;|break;)\s*(//.*)?$")
COND_RE = re.compile(r"\b(if|else|case|default)\b|\?|^\s*\|\||^\s*&&")
# Lines that are structure, not statements: braces, a switch's
# unreachable fallthrough, a defaulted member, or a signature line.
STRUCTURE_RE = re.compile(
    r"^\s*(\}|\{|\};|\}\s*//.*|return\s+\"\?\";|default:.*|.*=\s*default;|"
    r"[\w:<>,~&*\s\[\]]+\([^;]*\)\s*(const)?\s*(noexcept)?\s*\{?)\s*$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(argv, cwd, env=None):
    """Run one pipeline command; raise with its output on failure."""
    res = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv))} exited "
                           f"{res.returncode}:\n{res.stderr[-2000:]}")


def run_all(commands):
    """Run (argv, cwd[, env]) commands on JOBS threads; fail on the
    first error."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(run, *cmd) for cmd in commands]
        for f in concurrent.futures.as_completed(futures):
            f.result()


def build(build_dir):
    flags = "-O1 --coverage"
    subprocess.run(
        ["cmake", "-S", str(REPO), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Coverage", "-DBUILD_TESTING=OFF",
         f"-DCMAKE_CXX_FLAGS={flags}", f"-DCMAKE_EXE_LINKER_FLAGS=--coverage"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(build_dir), f"-j{JOBS}"],
                   check=True, stdout=subprocess.DEVNULL)


def pipeline(build_dir, work):
    eiotrace = str(build_dir / "tools" / "eiotrace")
    scenarios = sorted((REPO / "examples" / "scenarios").glob("*.json"))

    # Stage 1: simulations, benches, examples and the campaign are
    # independent of one another.
    stage = []
    for sc in scenarios:
        out = work / sc.stem
        out.mkdir()
        stage.append(([eiotrace, "simulate", f"--scenario={sc}",
                       "--format=v3", f"--save-dir={out}", "--monitor",
                       "--jobs=2"], work))
    for name in FIGURE_BENCHES:
        cwd = work / f"bench_{name}"
        cwd.mkdir()
        # EIO_BENCH_CSV: the benches also dump their figure data as CSV.
        stage.append(([str(build_dir / "bench" / name), "--jobs=2"], cwd,
                      {**os.environ, "EIO_BENCH_CSV": str(cwd)}))
    for name in EXAMPLES:
        cwd = work / f"example_{name}"
        cwd.mkdir()
        stage.append(([str(build_dir / "examples" / name)], cwd))
    stage.append(([eiotrace, "campaign",
                   str(REPO / "examples" / "sweeps" / "ior_seed_scale.json"),
                   f"--out={work / 'campaign'}", "--workers=2"], work))
    # The crash-recovery path CI drives: a killed worker's run is retried.
    stage.append(([eiotrace, "campaign",
                   str(REPO / "examples" / "sweeps" / "ior_seed_scale.json"),
                   f"--out={work / 'campaign_crash'}", "--workers=2",
                   "--inject-crash-run=3", "--run-timeout=600"], work))
    stage.append(([eiotrace, "campaign", str(REPO / "examples" / "sweeps"),
                   f"--out={work / 'campaign_dir'}", "--plan-only"], work))
    flags_dir = work / "flags"
    flags_dir.mkdir()
    for machine in OST_COUNT:
        out = flags_dir / machine
        out.mkdir()
        stage.append(([eiotrace, "simulate", f"--machine={machine}",
                       "--tasks=16", "--block-mib=4", "--segments=2",
                       "--runs=2", "--seed=7", "--format=tsv",
                       f"--save-dir={out}", "--jobs=1"], work))
    # Self-observability of a simulation: gauges and spans.
    for ext in ("json", "tsv"):
        stage.append(([eiotrace, "simulate", "--tasks=8", "--block-mib=2",
                       "--segments=1", "--runs=2", "--jobs=2",
                       "--obs-summary", f"--metrics={flags_dir / f'obs.{ext}'}",
                       f"--chrome-trace={flags_dir / f'obs_{ext}.json'}"],
                      work))
    stage.append(([eiotrace, "version"], work))
    stage.append(([eiotrace, "help"], work))
    for cmd in ("report", "summary", "analyze", "monitor", "histogram",
                "modes", "rates", "diagram", "diagnose", "patterns",
                "phases", "compare", "convert", "simulate", "campaign"):
        stage.append(([eiotrace, "help", cmd], work))
    log(f"coverage_ledger: stage 1, {len(stage)} commands")
    run_all(stage)

    # Stage 2: TSV copies, and a v3 copy back from TSV.
    stage = []
    for sc in scenarios:
        d = work / sc.stem
        stage.append(([eiotrace, "convert", str(d / "run0.v3"),
                       str(d / "run0.tsv"), "--format=tsv"], work))
    log(f"coverage_ledger: stage 2, {len(stage)} commands")
    run_all(stage)
    stage = [([eiotrace, "convert", str(work / sc.stem / "run0.tsv"),
               str(work / sc.stem / "rt.v3")], work) for sc in scenarios]
    run_all(stage)

    # Stage 3: every trace command on each run0, as v3 and as TSV.
    stage = []
    for sc in scenarios:
        machine = json.loads(sc.read_text()).get("machine", "franklin")
        osts = f"--ost-count={OST_COUNT.get(machine, 48)}"
        d = work / sc.stem
        for fmt, j in (("v3", "--jobs=2"), ("tsv", "--jobs=1")):
            t = str(d / f"run0.{fmt}")
            for argv in (
                    ["report", t],
                    ["summary", t, j],
                    ["summary", t, j, "--json"],
                    ["analyze", t, j],
                    ["analyze", t, j, "--json", "--monitor", osts],
                    ["monitor", t, j, osts,
                     f"--incidents={d / f'incidents_{fmt}.jsonl'}"],
                    ["monitor", t, j, osts, "--json"],
                    ["histogram", t, j],
                    ["histogram", t, j, "--log", "--op=write"],
                    ["modes", t, j],
                    ["modes", t, j, "--log"],
                    ["rates", t, j],
                    ["diagram", t],
                    ["diagnose", t, j, osts],
                    ["diagnose", t, j, osts, "--json"],
                    ["patterns", t, j],
                    ["phases", t, j],
            ):
                stage.append(([eiotrace, *argv], work))
        stage.append(([eiotrace, "analyze", str(d / "run0.v3"), "--monitor",
                       osts, "--obs-summary", f"--metrics={d / 'metrics.json'}",
                       f"--chrome-trace={d / 'trace.json'}"], work))
        stage.append(([eiotrace, "summary", str(d / "run0.tsv"), "--obs",
                       f"--metrics={d / 'metrics.tsv'}"], work))
        t = str(d / "run0.v3")
        for argv in (
                ["summary", t, "--phase=1", "--min-bytes=1",
                 "--max-bytes=1e12", "--t-lo=0", "--t-hi=1e6"],
                ["histogram", t, "--bins=10"],
                ["modes", t, "--bandwidth=0.8"],
                ["rates", t, "--bins=20", "--op=write"],
                ["diagram", t, "--rows=8", "--cols=40"],
                ["monitor", t, osts, "--drift-d=0.3", "--window=512",
                 "--stride=256"],
                ["diagnose", t, "--fair-share-mibs=8"],
                ["analyze", t, "--log", "--bins=12", "--rate-bins=30"],
                ["convert", t, str(d / "copy.v3")],
                ["convert", str(d / "run0.tsv"), str(d / "copy.tsv"), "--tsv"],
        ):
            stage.append(([eiotrace, *argv], work))
    for a, b in COMPARE_PAIRS:
        for fmt in ("v3", "tsv"):
            stage.append(([eiotrace, "compare", str(work / a / f"run0.{fmt}"),
                           str(work / b / f"run0.{fmt}")], work))
    log(f"coverage_ledger: stage 3, {len(stage)} commands")
    run_all(stage)


def gcov_json(gcda):
    """The gcov JSON documents of one object file's counters."""
    res = subprocess.run(["gcov", "--json-format", "--stdout", "-o",
                          str(gcda.parent), str(gcda)],
                         cwd=gcda.parent, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"gcov failed on {gcda}:\n{res.stderr[-2000:]}")
    return [json.loads(line) for line in res.stdout.splitlines()
            if line.startswith("{")]


def collect(build_dir):
    """Per src/ file: {line: count} and {(lo, hi, name): count}, each the
    maximum over translation units."""
    lines, funcs = {}, {}
    src = REPO / "src"
    gcdas = sorted(build_dir.rglob("*.gcda"))
    if not gcdas:
        raise RuntimeError(f"no .gcda files under {build_dir}")
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        for docs in pool.map(gcov_json, gcdas):
            for doc in docs:
                for f in doc["files"]:
                    path = Path(f["file"])
                    if not path.is_absolute():
                        continue
                    path = path.resolve()
                    if src not in path.parents:
                        continue
                    rel = str(path.relative_to(REPO))
                    counts = lines.setdefault(rel, {})
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        counts[n] = max(counts.get(n, 0), ln["count"])
                    calls = funcs.setdefault(rel, {})
                    for fn in f["functions"]:
                        key = (fn["start_line"], fn["end_line"],
                               fn["demangled_name"])
                        calls[key] = max(calls.get(key, 0),
                                         fn["execution_count"])
    return lines, funcs


def enclosing(funcs, line):
    """The innermost function (lo, hi, name) holding `line`."""
    best = None
    for lo, hi, name in funcs:
        if lo <= line <= hi and (best is None or hi - lo < best[1] - best[0]):
            best = (lo, hi, name)
    return best


def blocks_of(counts, funcs):
    """Runs of unreached executable lines, split at function bounds."""
    out, cur, cur_fn = [], [], None
    for n in sorted(counts):
        fn = enclosing(funcs, n)
        if counts[n] == 0 and cur and fn == cur_fn:
            cur.append(n)
            continue
        if cur:
            out.append((cur, cur_fn))
        cur, cur_fn = ([n], fn) if counts[n] == 0 else ([], None)
    if cur:
        out.append((cur, cur_fn))
    return out


def classify(text, block, fn):
    """'error', 'check' or 'structure' for blocks that are not behaviour,
    None for a block the ledger must account for. Lines gcov attributes
    to no function (implicit members, inlined one-liners) are structure."""
    lo, hi = block[0], block[-1]
    stmts = [text[n - 1] for n in block]
    above = text[lo - 2] if lo >= 2 else ""
    if ERROR_RE.search(above) or (
            len(block) <= 12 and any(ERROR_RE.search(s) for s in stmts)):
        return "error"
    if fn is None or all(STRUCTURE_RE.match(line) for line in stmts):
        return "structure"
    if (len(block) <= 3 and EXIT_RE.match(stmts[-1]) and
            (COND_RE.search(above) or COND_RE.search(stmts[0]))):
        return "check"
    return None


def short_name(fn):
    if fn is None:
        return "<file scope>"
    name = fn[2].replace("(anonymous namespace)", "{anon}")
    return name.split("(")[0].replace("[abi:cxx11]", "")


def account(rel, fn, reached, text, block):
    """The label of a block that is not an error path: a kept reason, a
    branch of a reached function, or 'NO USER'."""
    for prefix, reason in KEPT_FILES:
        if rel.startswith(prefix):
            return "kept: " + reason
    name = fn[2] if fn else ""
    for pattern, reason in KEPT:
        if re.search(pattern, name):
            return "kept: " + reason
    if reached:
        cond = text[block[0] - 2].strip() if block[0] >= 2 else ""
        return f"branch: the pipeline's inputs skip it, after `{cond[:60]}`"
    return "NO USER"


def report(lines, funcs):
    total = sum(len(c) for c in lines.values())
    reached = sum(1 for c in lines.values() for v in c.values() if v > 0)
    tally = {"error": 0, "check": 0, "structure": 0, "kept": 0,
             "branch": 0, "NO USER": 0}
    print(f"coverage ledger: {reached} of {total} executable src/ lines "
          f"reached ({100.0 * reached / max(total, 1):.1f}%)")
    for rel in sorted(lines):
        text = (REPO / rel).read_text().splitlines()
        calls = funcs.get(rel, {})
        rows = []
        for block, fn in blocks_of(lines[rel], calls):
            kind = classify(text, block, fn)
            if kind:
                tally[kind] += 1
                continue
            # Reached: the block's function, or one around it (a
            # lambda's parent), ran.
            reached = any(lo <= block[0] and block[-1] <= hi and n > 0
                          for (lo, hi, _), n in calls.items())
            label = account(rel, fn, reached, text, block)
            tally[label.split(":")[0]] += 1
            lo, hi = block[0], block[-1]
            span = f"{lo}" if lo == hi else f"{lo}-{hi}"
            rows.append(f"  {span:>9}  {len(block):3} lines  {short_name(fn)}"
                        f"\n             {label}")
        if rows:
            hit = sum(1 for v in lines[rel].values() if v > 0)
            print(f"{rel}  ({hit}/{len(lines[rel])} lines reached)")
            print("\n".join(rows))
    print("unreached blocks: " +
          ", ".join(f"{n} {kind}" for kind, n in tally.items()))
    return tally["NO USER"]


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__.split("Usage:")[1].split("\n\n")[0].strip())
    build_dir = Path(sys.argv[1]).resolve()
    for tool in ("cmake", "gcov"):
        if shutil.which(tool) is None:
            sys.exit(f"coverage_ledger: {tool} not found")
    try:
        build(build_dir)
        for gcda in build_dir.rglob("*.gcda"):
            gcda.unlink()
        with tempfile.TemporaryDirectory(prefix="eio_ledger_") as work:
            pipeline(build_dir, Path(work))
        lines, funcs = collect(build_dir)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        sys.exit(f"coverage_ledger: {e}")
    if report(lines, funcs):
        sys.exit("coverage_ledger: blocks with NO USER: delete them or "
                 "name their user in KEPT")


if __name__ == "__main__":
    main()
