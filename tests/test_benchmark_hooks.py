"""Every package name and CLI argv that the benchmark under perfbench/ reaches must exist.

perfbench/tracer.py wraps the functions listed in its WRAPPED tuple by module
and name, and the benchmark's scripts import from spectraledge.  Both are read
here with ast.  perfbench/workloads.py, which imports nothing from the package,
is imported read-only by file path, and every argv its ``commands`` builds, for
both workloads at both reference seeds, is parsed by the CLI parser.  One
traced pass of both workloads then runs in-process under perfbench/tracer.py,
also imported by file path, and its spans are aggregated as a traced benchmark
run aggregates them.  A change that deletes or renames one of those names or
options, or breaks what the tracer reads from a call, fails here rather than in
a benchmark run.  The package's public surface, `spectraledge.__all__`, is
pinned here too, so a change to the API shows in this file's diff.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import spectraledge
from spectraledge.cli import _build_parser, run_command

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _wrapped() -> list:
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py assigns no WRAPPED tuple")


def _imports() -> list:
    """(file, module, name) for every `from spectraledge... import name` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spectraledge":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def _load(stem: str):
    """perfbench/<stem>.py as a module, imported read-only by file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


WRAPPED = _wrapped()
IMPORTS = _imports()
WORKLOADS = _load("workloads")


def test_hooks_are_found():
    assert WRAPPED and IMPORTS


@pytest.mark.parametrize("module, name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in WRAPPED])
def test_wrapped_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"spectraledge.{module}"), name, None))


@pytest.mark.parametrize("module, name",
                         [pytest.param(m, n, id=f"{f}:{m}.{n}") for f, m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("seed", WORKLOADS.REFERENCE_SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_argv_parses(workload, seed):
    for command in WORKLOADS.commands(workload, seed):
        # the runner appends --out, which simulate requires
        args = _build_parser().parse_args([*command.args, "--out", command.out])
        assert args.command == command.name


def test_traced_pass_runs_and_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    # one traced pass of both workloads at seed 1, as child.py runs it: the
    # workloads name their spectra relative to the repository root
    tracer_module = _load("tracer")
    monkeypatch.chdir(PERFBENCH.parent)
    originals = [getattr(importlib.import_module(f"spectraledge.{m}"), n) for m, n in WRAPPED]
    sites = [(module, attr, value) for name, module in list(sys.modules.items())
             if module is not None and (name == "spectraledge" or name.startswith("spectraledge."))
             for attr, value in list(vars(module).items()) if any(value is fn for fn in originals)]
    commands = [c for workload in WORKLOADS.WORKLOADS for c in WORKLOADS.commands(workload, 1)]
    tracer = tracer_module.Tracer()
    codes = {}
    tracer.install()
    try:
        assert sites and all(getattr(module, attr) is not value for module, attr, value in sites)
        for command in commands:
            with tracer.command(command.label) as outcome:
                outcome["rc"] = run_command([*command.args, "--out", str(tmp_path / command.out)])
            codes[command.label] = outcome["rc"]
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is value for module, attr, value in sites)
    assert codes == {c.label: 0 for c in commands}
    layers = tracer_module.layer_metrics(tracer.spans, 1)
    assert layers["cli.run_command.calls"] == (len(commands), "count")
    assert set(tracer_module.command_self_times(tracer.spans, 1)) == set(codes)


PUBLIC = [
    "__version__",
    "SpectrumModel", "load_spectrum", "with_size",
    "StieltjesValue", "solve_stieltjes", "density",
    "EdgeSolution", "phi_family", "find_edge", "gamma0", "solve_edge", "edge_residuals",
    "FlowState", "flow_state", "flow_derivative_check", "flow_derivative_checks", "analytic_derivatives",
    "EdgeFunctionals", "edge_functionals", "identity_residuals",
    "f1_cdf", "f1_pdf", "tw_table",
    "EnsembleResult", "sample_matrix", "largest_eigenvalue", "run_ensemble", "ks_distance",
    "LocalLawReport", "build_linearization", "locallaw_deviation",
    "SpectralEdgeError", "InvalidConfigError", "InvalidArgumentError",
    "PoleError", "SolverFailureError", "EdgeNotFoundError", "DegenerateScalingError",
    "NumericError",
]


def test_public_surface_is_pinned():
    assert spectraledge.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(spectraledge, name), name
