"""Documentation consistency: the docs must reference real artifacts."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def referenced_paths(text):
    """Path-like references in backticks (modules, files, directories)."""
    for match in re.findall(r"`([A-Za-z0-9_./-]+\.(?:py|md|txt))`", text):
        yield match


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                                 "docs/cost_model.md", "docs/architecture.md",
                                 "docs/api.md", "docs/observability.md",
                                 "docs/robustness.md", "docs/performance.md",
                                 "docs/serving.md"])
def test_doc_exists_and_nonempty(doc):
    path = ROOT / doc
    assert path.exists(), doc
    assert len(path.read_text()) > 500


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_referenced_files_exist(doc):
    text = (ROOT / doc).read_text()
    missing = []
    for ref in referenced_paths(text):
        if "*" in ref:
            continue
        candidates = [ROOT / ref, ROOT / "src" / ref,
                      ROOT / "benchmarks" / ref, ROOT / "examples" / ref,
                      ROOT / "docs" / ref]
        if any(c.exists() for c in candidates):
            continue
        # Bare module names are contextualized by their package column in
        # DESIGN.md; accept them if they exist anywhere in the tree.
        name = ref.split("/")[-1]
        if (list((ROOT / "src").rglob(name))
                or list((ROOT / "benchmarks").glob(name))):
            continue
        missing.append(ref)
    assert not missing, f"{doc} references missing files: {missing}"


def test_design_bench_targets_exist():
    """Every bench target named in DESIGN.md's experiment index exists."""
    text = (ROOT / "DESIGN.md").read_text()
    targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
    assert targets, "DESIGN.md names no bench targets?"
    for target in targets:
        assert (ROOT / "benchmarks" / target).exists(), target


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    examples = set(re.findall(r"examples/(\w+\.py)", text))
    assert len(examples) >= 5
    for example in examples:
        assert (ROOT / "examples" / example).exists(), example


def test_registered_algorithms_documented():
    """Every algorithm in the registry appears in the README."""
    from repro import ALGORITHMS
    readme = (ROOT / "README.md").read_text()
    for name in ALGORITHMS:
        assert name.replace("cbase-npj", "npj").split("-")[0] in readme.lower()


def test_readme_documents_backends_and_gate():
    """The README covers backend selection and points at the benchmark."""
    from repro.exec.backend import BACKEND_ENV, BACKENDS
    readme = (ROOT / "README.md").read_text()
    assert BACKEND_ENV in readme
    for backend in BACKENDS:
        assert f"`{backend}`" in readme
    assert "perf/README.md" in readme


def test_perf_is_the_only_bench_plane():
    """Wall time has one benchmark, perf/run.py: no BENCH_*.json record
    is left at the repo root, the docs name it, CI runs its tests and
    both of its forms, and the Makefile has a target for it."""
    assert not list(ROOT.glob("BENCH_*.json"))
    assert (ROOT / "BENCHMARK.json").exists()
    for doc in ("README.md", "docs/performance.md"):
        assert "perf/run.py" in (ROOT / doc).read_text(), doc
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    perf_job = ci.split("\n  perf:\n")[1]
    assert "pytest -q perf/tests" in perf_job
    assert "python perf/run.py --seconds" in perf_job
    assert "python perf/run.py --trace" in perf_job
    assert "perf/out/" in perf_job
    nightly = (ROOT / ".github" / "workflows" / "nightly.yml").read_text()
    assert "python perf/run.py\n" in nightly
    assert "python perf/run.py --trace" in nightly
    makefile = (ROOT / "Makefile").read_text()
    assert "\nperf:\n" in makefile
    assert "perf/run.py" in makefile
    for target in ("perf", "diff-backends"):
        assert f"make {target}" in (ROOT / "docs" / "performance.md").read_text()


def test_committed_baseline_referenced_by_ci_exists():
    """CI runs perf/run.py against the committed BENCHMARK.json, which is
    present and declares workloads, and the pip cache key (constraints.txt,
    via the shared composite action) exists."""
    import json
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "perf/run.py" in ci
    assert "BENCHMARK.json" in (ROOT / "perf" / "run.py").read_text()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"], "BENCHMARK.json declares no workloads"
    assert (ROOT / "constraints.txt").exists()
    action = (ROOT / ".github" / "actions" / "setup-repro" / "action.yml")
    assert action.exists(), "the setup-repro composite action is missing"
    assert "constraints.txt" in action.read_text()


def test_workflows_share_the_setup_composite_action():
    """Every job in both workflows sets up its toolchain through the
    setup-repro composite action — no per-job setup-python/pip
    boilerplate left behind."""
    for name in ("ci.yml", "nightly.yml"):
        text = (ROOT / ".github" / "workflows" / name).read_text()
        jobs = text.count("runs-on:")
        uses = text.count("uses: ./.github/actions/setup-repro")
        assert uses == jobs, (
            f"{name}: {jobs} jobs but {uses} setup-repro uses")
        assert "actions/setup-python" not in text, (
            f"{name}: python setup belongs in the composite action")
        assert "pip install" not in text, (
            f"{name}: dependency installs belong in the composite action")


def test_experiments_covers_every_table_and_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Figure 1", "Figure 4", "Table I", "Scale-up",
                     "Detection", "560"):
        assert artifact in text, artifact


def test_serving_doc_covers_the_whole_protocol_surface():
    """docs/serving.md documents every op, response type, and generator."""
    from repro.serve.protocol import (
        PROTOCOL_VERSION,
        REQUEST_OPS,
        RESPONSE_TYPES,
        SPEC_GENERATORS,
    )
    text = (ROOT / "docs" / "serving.md").read_text()
    for op in REQUEST_OPS:
        assert f"`{op}`" in text, f"request op {op} undocumented"
    for rtype in RESPONSE_TYPES:
        assert f"`{rtype}`" in text, f"response type {rtype} undocumented"
    for generator in SPEC_GENERATORS:
        assert f"`{generator}`" in text, f"generator {generator} undocumented"
    assert f"protocol version {PROTOCOL_VERSION}" in text.lower()
    for section in ("cache", "admission", "fault", "single-flight"):
        assert section in text.lower(), f"serving.md lacks {section} coverage"


def test_serve_cli_flags_are_documented():
    """Every `repro serve` flag appears in docs/serving.md and the CLI
    docstring mentions the serve and diff --served entry points."""
    from repro import cli
    parser = cli.build_parser()
    serve_parser = next(
        action.choices["serve"]
        for action in parser._subparsers._group_actions)
    flags = [opt for a in serve_parser._actions for opt in a.option_strings
             if opt.startswith("--") and opt != "--help"]
    assert "--smoke" in flags and "--trace-out" in flags
    serving = (ROOT / "docs" / "serving.md").read_text()
    for flag in flags:
        assert f"`{flag}`" in serving, f"serve flag {flag} undocumented"
    assert "--served" in serving
    assert "repro serve" in (cli.__doc__ or "")
    assert "--served" in (cli.__doc__ or "")


def test_serving_doc_covers_failure_semantics():
    """The resilience surface — deadlines, circuits, drain, healing —
    is documented with its typed error kinds and health metrics."""
    text = (ROOT / "docs" / "serving.md").read_text()
    for kind in ("DeadlineExceeded", "CircuitOpen", "RequestCancelled"):
        assert kind in text, f"serving.md lacks error kind {kind}"
    for term in ("deadline_ms", "serve.health.", "half-open",
                 "drain", "self-healing", "`health`"):
        assert term in text, f"serving.md lacks {term}"
    robustness = (ROOT / "docs" / "robustness.md").read_text()
    assert "`slow`" in robustness
    assert "chaos --serve" in robustness


def test_readme_and_observability_cover_serving():
    readme = (ROOT / "README.md").read_text()
    assert "repro serve" in readme
    assert "docs/serving.md" in readme
    assert "serve.cache_hit" in (ROOT / "docs" / "observability.md").read_text()


def test_ci_hardening_is_in_place_in_both_workflows():
    """Concurrency groups, cancel-in-progress, and per-job timeouts."""
    for name in ("ci.yml", "nightly.yml"):
        text = (ROOT / ".github" / "workflows" / name).read_text()
        assert "concurrency:" in text, name
        assert "cancel-in-progress: true" in text, name
        jobs = text.count("runs-on:")
        assert jobs > 0 and text.count("timeout-minutes:") == jobs, (
            f"{name}: every job needs a timeout-minutes")


def test_ci_runs_serve_smoke_and_enforces_coverage():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "serve-smoke:" in ci
    assert "repro serve --smoke" in ci
    assert "diff --served" in ci
    assert "serve-trace" in ci
    assert "--cov=repro" in ci
    assert "--cov-fail-under=" in ci
    constraints = (ROOT / "constraints.txt").read_text()
    assert "pytest-cov==" in constraints
    assert "coverage==" in constraints


def test_planning_doc_exists_and_covers_the_surface():
    """docs/planning.md documents the rule, its measurements, the gate,
    and every `repro plan` flag."""
    from repro import cli
    from repro.plan import DEFAULT_REGRET_THRESHOLD, RULES

    path = ROOT / "docs" / "planning.md"
    assert path.exists(), "docs/planning.md is missing"
    text = path.read_text()
    assert len(text) > 500
    for term in ("rule", "regret", "oracle", "bit-identical",
                 "memory budget", "wall", "floor"):
        assert term in text.lower(), f"planning.md lacks {term}"
    for rule, (algorithm, _why) in RULES.items():
        assert f"`{rule}`" in text and f"`{algorithm}`" in text, rule
    assert f"{DEFAULT_REGRET_THRESHOLD:g}x" in text

    parser = cli.build_parser()
    plan_parser = next(
        action.choices["plan"]
        for action in parser._subparsers._group_actions)
    flags = [opt for a in plan_parser._actions for opt in a.option_strings
             if opt.startswith("--") and opt != "--help"]
    assert "--gate" in flags
    for flag in flags:
        assert f"`{flag}`" in text, f"plan flag {flag} undocumented"
    assert "run --auto" in text


def test_readme_and_observability_cover_the_planner():
    readme = (ROOT / "README.md").read_text()
    assert "repro plan" in readme
    assert "--auto" in readme
    assert "docs/planning.md" in readme
    # The served path has no planner, so no plan.* metrics exist.
    obs = (ROOT / "docs" / "observability.md").read_text()
    assert "`plan." not in obs


def test_ci_runs_the_plan_gate_with_artifacts():
    """CI gates the rule's regret on every PR above the wall floor;
    nightly re-runs at 2x."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "plan-gate:" in ci
    assert "make plan-gate" in ci
    assert "make run-auto" in ci
    assert "plan-candidates.json" in ci
    assert "regret-report.json" in ci
    nightly = (ROOT / ".github" / "workflows" / "nightly.yml").read_text()
    assert "plan --gate" in nightly
    assert "--tuples 262144" in nightly
    makefile = (ROOT / "Makefile").read_text()
    assert "plan-gate:" in makefile
    assert "run-auto:" in makefile
    assert "plan --gate --tuples 131072" in makefile
    assert "run --auto" in makefile


def test_ci_coverage_floor_and_durations_are_ratcheted():
    """The coverage ratchet sits at 78 and slow tests are surfaced."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "--cov-fail-under=78" in ci
    assert "--durations=20" in ci


def test_robustness_doc_covers_disk_faults_and_spill_recovery():
    """The disk-fault ladder and checkpoint/resume are documented."""
    from repro.faults.plan import (
        DISK_FAULT_KINDS,
        STORE_READ_POINT,
        STORE_WRITE_POINT,
    )
    text = (ROOT / "docs" / "robustness.md").read_text()
    assert "Disk faults & spill recovery" in text
    for kind in DISK_FAULT_KINDS:
        assert f"`{kind}`" in text, f"disk fault kind {kind} undocumented"
    for point in (STORE_WRITE_POINT, STORE_READ_POINT):
        assert f"`{point}`" in text, f"store point {point} undocumented"
    for term in ("chaos --spill", "--resume", "SpillError", "run.json",
                 "degrade"):
        assert term in text, f"robustness.md lacks {term}"


def test_performance_doc_covers_the_spill_budget():
    """docs/performance.md documents every spill knob with its default."""
    from repro.store.chunks import CODEC_ENV
    from repro.store.spill import (
        DEFAULT_CHUNK_BYTES,
        MEMORY_BUDGET_ENV,
        SPILL_CHUNK_BYTES_ENV,
        SPILL_DIR_ENV,
        SPILL_STRICT_ENV,
    )
    text = (ROOT / "docs" / "performance.md").read_text()
    for env in (MEMORY_BUDGET_ENV, SPILL_DIR_ENV, SPILL_CHUNK_BYTES_ENV,
                SPILL_STRICT_ENV, CODEC_ENV):
        assert env in text, f"performance.md lacks {env}"
    assert str(DEFAULT_CHUNK_BYTES) in text
    assert "diff --spill" in text
    assert "bit-identical" in text
    assert "store.chunks_written" in (
        ROOT / "docs" / "observability.md").read_text()


def test_ci_runs_spill_chaos_with_manifest_artifact():
    """The spill-chaos job kill-and-resumes on vector AND parallel and
    uploads the spill manifests."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "spill-chaos:" in ci
    assert "chaos --spill" in ci
    assert "--artifact-dir" in ci
    assert "spill-manifests" in ci
    spill_job = ci.split("spill-chaos:")[1]
    assert spill_job.count("chaos --spill") >= 2, (
        "spill-chaos must sweep both the vector and parallel backends")
    assert "REPRO_BACKEND=parallel" in spill_job
    assert "zstandard==" in (ROOT / "constraints.txt").read_text()


def test_spill_bench_tier_is_committed_and_wired():
    """The spilled tier is gated for correctness, not wall time: no
    spilled BENCH record is left, the doc says so, and the spill
    differential and chaos runs have make targets."""
    assert not (ROOT / "BENCH_spill_seed.json").exists()
    text = (ROOT / "docs" / "performance.md").read_text()
    assert "repro diff --spill" in text
    makefile = (ROOT / "Makefile").read_text()
    for target in ("diff-spill", "spill-chaos"):
        assert target in text, f"performance.md lacks {target}"
        assert f"{target}:" in makefile, f"Makefile lacks {target}"


def test_performance_doc_covers_out_of_core_ingest():
    """docs/performance.md documents every streaming-ingest knob with
    its default, and observability.md carries the paging metrics."""
    from repro.store.chunks import CODEC_ENV
    from repro.store.relations import (
        DEFAULT_PAGE_CACHE_SEGMENTS,
        DEFAULT_STREAM_CHUNK_TUPLES,
        PAGE_CACHE_ENV,
        STREAM_CHUNK_ENV,
    )
    text = (ROOT / "docs" / "performance.md").read_text()
    for env in (STREAM_CHUNK_ENV, PAGE_CACHE_ENV, CODEC_ENV):
        assert env in text, f"performance.md lacks {env}"
    assert str(DEFAULT_STREAM_CHUNK_TUPLES) in text
    assert str(DEFAULT_PAGE_CACHE_SEGMENTS) in text
    assert "diff --oocore" in text
    assert "diff-oocore:" in (ROOT / "Makefile").read_text()
    assert "tests/store/test_oocore_memory_bound.py" in text
    assert (ROOT / "tests" / "store" / "test_oocore_memory_bound.py").exists()
    assert "clear_refs" in text, (
        "the honest-measurement methodology (VmHWM reset) must be "
        "documented next to the claim it protects")
    obs = (ROOT / "docs" / "observability.md").read_text()
    for metric in ("store.bytes_raw", "store.compression_ratio",
                   "store.dictionaries_trained", "store.pages_in",
                   "store.bytes_paged_in", "store.mappings_released",
                   "store.column_materializations",
                   "store.zero_copy_shares"):
        assert metric in obs, f"observability.md lacks {metric}"


def test_ci_runs_the_oocore_smoke_and_nightly_legs():
    """Per-PR oocore smoke (differential + the slow memory-bound test +
    the zstd codec tests) and a nightly larger-scale differential."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "oocore-smoke:" in ci
    assert "diff --oocore" in ci
    smoke_job = ci.split("oocore-smoke:")[1].split("spill-chaos:")[0]
    assert "tests/store/test_oocore_memory_bound.py" in smoke_job
    assert "zstandard" in smoke_job, (
        "the smoke job must install zstandard so the gated codec tests "
        "run for real instead of skipping")
    assert "-k zstd" in smoke_job
    nightly = (ROOT / ".github" / "workflows" / "nightly.yml").read_text()
    assert "diff --oocore" in nightly


def test_ci_runs_serve_chaos_with_health_artifact():
    """The serve-chaos job storms both backends and uploads health."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "serve-chaos:" in ci
    assert "chaos --serve" in ci
    assert "--artifact-dir" in ci.split("serve-chaos:")[1]
    assert "REPRO_BACKEND=parallel" in ci
    assert "serve-health" in ci
    makefile = (ROOT / "Makefile").read_text()
    assert "serve-chaos:" in makefile
    assert "chaos --serve" in makefile
