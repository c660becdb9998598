import numpy as np
import pytest

from viscokern.config import ConfigError, parse_config
from viscokern.kernels import PronyKernel, TabulatedKernel, WedgeKernel
from viscokern.mollify import MollifiedKernel


def errors_of(text, **kw):
    with pytest.raises(ConfigError) as exc:
        parse_config(text, **kw)
    return exc.value.errors


class TestDefaults:
    def test_empty_config_fills_documented_defaults(self):
        cfg = parse_config("")
        assert (cfg.domain_a, cfg.domain_b, cfg.horizon) == (0.0, 1.0, 1.0)
        assert cfg.u0 == "sin(pi*x)"
        assert cfg.u1 == "0" and cfg.f == "0"
        assert cfg.scheme == "integral"
        assert isinstance(cfg.kernel, WedgeKernel)
        assert (cfg.kernel.g0, cfg.kernel.g_inf, cfg.kernel.ramp) == (2.0, 1.0, 1.0)
        assert (cfg.n_interior, cfg.n_steps, cfg.save_stride) == (127, 512, 1)
        assert cfg.epsilon_list == (0.1, 0.05, 0.025)
        assert cfg.out_dir == "out"
        assert cfg.resolved["problem.T"] == "1.0"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nproblem.T = 2.0  # trailing\n")
        assert cfg.horizon == 2.0

    def test_problem_spec_roundtrip(self):
        cfg = parse_config("discretization.n_interior = 16\ndiscretization.n_steps = 64")
        spec = cfg.problem_spec()
        assert spec.grid.n_interior == 16
        assert spec.n_steps == 64
        spec2 = cfg.problem_spec(n_interior=32, n_steps=128, scheme="differential")
        assert spec2.grid.n_interior == 32
        assert spec2.scheme == "differential"


class TestKernelBlock:
    def test_unknown_variant_names_options(self):
        errs = errors_of("kernel.type = wedg")
        assert len(errs) == 1
        line, msg = errs[0]
        assert line == 1
        assert "wedge" in msg and "prony" in msg and "tabulated" in msg

    def test_prony(self):
        cfg = parse_config(
            "kernel.type = prony\nkernel.ginf = 0.5\nkernel.terms = 1:0.5, 0.25:2.0"
        )
        assert isinstance(cfg.kernel, PronyKernel)
        assert cfg.kernel.terms == ((1.0, 0.5), (0.25, 2.0))

    def test_tabulated_from_csv(self, tmp_path):
        (tmp_path / "g.csv").write_text("0.0,2.0\n1.0,1.2\n2.0,1.0\n")
        cfg = parse_config("kernel.type = tabulated\nkernel.csv = g.csv",
                           base_dir=tmp_path)
        assert isinstance(cfg.kernel, TabulatedKernel)
        assert float(cfg.kernel.g(0.5)) == pytest.approx(1.6)

    def test_tabulated_missing_file(self, tmp_path):
        errs = errors_of("kernel.type = tabulated\nkernel.csv = nope.csv",
                         base_dir=tmp_path)
        assert any("kernel" in msg for _, msg in errs)

    def test_expression_kernel(self):
        cfg = parse_config("kernel.type = expression\nkernel.expression = 1 + exp(-t)")
        assert float(cfg.kernel.g(0.0)) == pytest.approx(2.0)

    def test_epsilon_wraps_kernel(self):
        cfg = parse_config("kernel.epsilon = 0.05")
        assert isinstance(cfg.kernel, MollifiedKernel)
        assert isinstance(cfg.base_kernel, WedgeKernel)
        assert cfg.kernel_epsilon == 0.05

    def test_wrong_variant_key_rejected(self):
        errs = errors_of("kernel.type = prony\nkernel.a = 0.5")
        assert any("not valid for kernel.type = prony" in msg for _, msg in errs)

    def test_bad_wedge_parameters(self):
        errs = errors_of("kernel.g0 = -2.0")
        assert any("positive" in msg for _, msg in errs)


class TestValidation:
    def test_negative_horizon(self):
        errs = errors_of("problem.T = -1.0")
        assert errs == [(1, "problem.T must be positive")]

    @pytest.mark.parametrize("key, value", [
        ("problem.a", "nan"), ("problem.a", "-inf"), ("problem.b", "inf"),
        ("problem.b", "nan"), ("problem.T", "nan"), ("problem.T", "inf"),
    ])
    def test_non_finite_domain_and_horizon(self, key, value):
        errs = errors_of(f"kernel.type = wedge\n{key} = {value}")
        assert errs == [(2, f"{key} must be finite, got {value}")]

    def test_unknown_key_with_line(self):
        errs = errors_of("problem.T = 1.0\nproblem.tt = 2.0")
        assert errs == [(2, "unknown key 'problem.tt'")]

    def test_duplicate_key(self):
        errs = errors_of("problem.T = 1.0\nproblem.T = 2.0")
        assert any("duplicate" in msg and line == 2 for line, msg in errs)

    def test_all_errors_collected(self):
        text = "\n".join(
            [
                "problem.T = -3",            # range
                "problem.u0 = sin(pi*y)",    # bad variable
                "kernel.type = gaussian",    # unknown variant
                "discretization.n_steps = one",  # type
                "nonsense.key = 1",          # unknown key
            ]
        )
        errs = errors_of(text)
        assert [line for line, _ in errs] == [1, 2, 3, 4, 5]

    def test_unparseable_expression_line(self):
        errs = errors_of("problem.f = 1 + * 2")
        line, msg = errs[0]
        assert line == 1
        assert "offset 4" in msg
        errs = errors_of("# data\nproblem.u0 = sin(pi*t)")
        assert errs == [(2, "problem.u0: may only use x, found 't' (at offset 7)")]

    def test_domain_order(self):
        errs = errors_of("problem.a = 2.0\nproblem.b = 1.0")
        assert any("b > a" in msg for _, msg in errs)
        errs = errors_of("problem.a = -1e308\nproblem.b = 1e308")
        assert errs == [(2, "problem domain needs b > a and finite b - a")]

    def test_stride_divides_steps(self):
        errs = errors_of("discretization.n_steps = 10\ndiscretization.stride = 3")
        assert any("divide" in msg for _, msg in errs)

    def test_missing_equals(self):
        errs = errors_of("problem.T 2.0")
        assert any("section.key = value" in msg for _, msg in errs)

    def test_list_parsing(self):
        cfg = parse_config("scenario.a_list = 0.4, 0.2, 0.1")
        assert cfg.a_list == (0.4, 0.2, 0.1)
        errs = errors_of("scenario.epsilon_list = 0.1;0.05")
        assert any("comma" in msg for _, msg in errs)

    def test_negative_epsilon_rejected(self):
        errs = errors_of("kernel.epsilon = -0.1")
        assert any("positive" in msg for _, msg in errs)

    def test_non_finite_kernel_parameters_rejected(self):
        assert errors_of("problem.T = 1.0\nkernel.epsilon = nan") == [
            (2, "kernel.epsilon must be finite and positive")
        ]
        errs = errors_of("kernel.type = wedge\nkernel.a = inf")
        assert errs == [(2, "kernel.a must be finite and positive, got inf")]
        errs = errors_of("problem.T = 1.0\nscenario.epsilon_list = 0.1, nan\nscenario.a_list = inf")
        assert [line for line, _ in errs] == [2, 3]

    @pytest.mark.parametrize("text, expected", [
        ("kernel.type = prony\nkernel.terms = 1:abc",
         "kernel.terms: expected comma-separated g:tau pairs, got '1:abc'"),
        ("kernel.type = prony\nkernel.terms = 1:0.5,2",
         "kernel.terms: expected comma-separated g:tau pairs, got '1:0.5,2'"),
        ("kernel.type = prony\nkernel.terms = -1:0.5",
         "kernel.terms: Prony weight must be finite and positive, got -1.0"),
        ("kernel.type = prony\nkernel.ginf = -1",
         "kernel.ginf must be finite and nonnegative, got -1.0"),
        ("problem.T = 1\nkernel.g0 = -2", "kernel.g0 must be finite and positive, got -2.0"),
        ("kernel.type = expression\nkernel.expression = 1 + exp(-x)",
         "kernel.expression: may only use t, found 'x' (at offset 9)"),
    ], ids=["terms-not-a-number", "terms-not-a-pair", "terms-negative-weight", "negative-ginf",
            "negative-g0", "expression-variable"])
    def test_kernel_value_reported_at_its_key(self, text, expected):
        assert errors_of(text) == [(2, expected)]

    def test_unparseable_kernel_number_reported_once(self):
        errs = errors_of("kernel.type = wedge\nkernel.g0 = abc")
        assert errs == [(2, "kernel.g0: expected a number, got 'abc'")]

    def test_unparseable_output_stride_reported_once(self):
        errs = errors_of("problem.T = 1.0\noutput.stride = abc")
        assert errs == [(2, "output.stride: expected an integer, got 'abc'")]
        assert errors_of("output.stride = 0") == [(1, "need output.stride >= 1")]
