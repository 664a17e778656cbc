"""The package's public names: each submodule's ``__all__``, re-exported lazily."""

import os
import subprocess
import sys
from pathlib import Path

import bregman_bv

PUBLIC_NAMES = [
    "ConditionalReport", "ConvexGenerator", "DUAL_ENSEMBLE_BIAS_TOL", "DUAL_ENSEMBLE_VARIANCE_SLACK",
    "DecompositionReport", "Domain", "DomainError", "ENSEMBLE_ATOM_CAP", "EnsembleEffectReport",
    "EnumerationCapError", "FullSpace", "GroupedSampleSet", "InversionError", "Mahalanobis",
    "NegativeEntropySimplex", "OpenBox", "OpenSimplex", "OracleConfig", "Piece", "SampleSet",
    "SeparableCustom", "SquaredEuclidean", "TotalVarianceReport", "TriangleExpansion", "argmin_from",
    "argmin_to", "certify_means", "check_samples", "conditional_label", "conditional_prediction",
    "decompose", "divergence", "dual_average", "dual_divergence", "dual_mean", "dual_variance",
    "emit_divergence_field", "ensemble_distribution", "ensemble_effect", "expected_divergence_from",
    "expected_divergence_to", "ingest", "primal_average", "primal_mean", "primal_variance",
    "render_json", "total_variance", "triangle_expansion",
]


def test_public_names_are_pinned():
    assert sorted(bregman_bv.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(bregman_bv))


def test_each_name_is_its_modules_object():
    for module in bregman_bv._submodules():
        for name in module.__all__:
            assert getattr(bregman_bv, name) is getattr(module, name), (module.__name__, name)


def test_no_name_is_declared_twice():
    declared = [name for module in bregman_bv._submodules() for name in module.__all__]
    assert len(declared) == len(set(declared))


def test_unknown_names_are_missing():
    assert not hasattr(bregman_bv, "no_such_name")
    assert not hasattr(bregman_bv, "__wrapped__")


def test_package_and_cli_import_without_numpy():
    # the bregman-bv entry point applies BREGMAN_BV_THREADS before numpy loads
    src = os.path.dirname(os.path.dirname(bregman_bv.__file__))
    # `from bregman_bv import cli` imports the package, then bregman_bv.cli and nothing more
    code = "import sys; from bregman_bv import cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"
    assert result.stderr == ""


def test_readme_quick_start_holds(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    capsys.readouterr()
    # what the quick start's comments say
    report, effect = namespace["report"], namespace["effect"]
    assert report.identity_residual == 0.0
    assert report.failures(1e-9) == []
    assert abs(effect.bias_change) <= 1e-15
    assert effect.variance_change < 0
