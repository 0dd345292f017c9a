import json
import os
import random
import subprocess
import sys

import pytest

import eqgenus
from eqgenus.algebra import GradedElement
from eqgenus.cli import main
from eqgenus.dataset import dataset_to_json, parse_dataset
from eqgenus.catalog import builtin, names
from eqgenus.genera import NON_V_KINDS, V_KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- dataset round trips ------------------------------------------------------------

def test_round_trip_all_entries(tmp_path):
    for name in names():
        data = builtin(name).data
        payload = dataset_to_json(data)
        back = parse_dataset(json.loads(json.dumps(payload)))
        assert back.digest() == data.digest(), name


def test_round_trip_reports_identical(tmp_path, capsys):
    path = tmp_path / "s2.json"
    code, out, _ = run(capsys, "catalog", "emit", "s2-rotation", "--output", str(path))
    assert code == 0
    c1, out1, _ = run(capsys, "expand", "--input", str(path),
                      "--operator", "d-theta-q", "--order", "16", "--format", "json")
    c2, out2, _ = run(capsys, "expand", "--input", "catalog:s2-rotation",
                      "--operator", "d-theta-q", "--order", "16", "--format", "json")
    assert c1 == c2 == 0
    j1, j2 = json.loads(out1), json.loads(out2)
    j1.pop("dataset"), j2.pop("dataset")
    assert j1 == j2


def test_family_dataset_round_trip():
    data = builtin("s2-family-base").data
    back = parse_dataset(dataset_to_json(data))
    assert back.digest() == data.digest()
    assert back.base_gens == data.base_gens


# -- commands and exit codes ----------------------------------------------------------

def test_expand_witten_h_all_zero(capsys):
    code, out, _ = run(capsys, "expand", "--input", "catalog:s2-rotation",
                       "--operator", "witten-h", "--order", "48")
    assert code == 0
    coeff_lines = [l for l in out.splitlines() if l.strip().startswith("q^")]
    assert coeff_lines and all(l.endswith(": 0") for l in coeff_lines)


def test_expand_single_point_passthrough(capsys, tmp_path):
    doc = {"format": 1, "fiber_half_dim": 1,
           "components": [{"name": "p", "k_alpha": 0, "sign": 1,
                           "normals": [{"weight": "1", "rank": 1, "roots": ["0"]}],
                           "integration_table": {}}]}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "expand", "--input", str(path),
                       "--operator", "d-theta-q", "--order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["1"]["-1/8"].startswith("(w)")


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "expand", "--input", str(path), "--operator", "witten-h")
    assert code == 2
    assert "line 1" in err
    assert out == ""


def test_validation_error_exit_3(capsys, tmp_path):
    doc = {"format": 1, "fiber_half_dim": 2,
           "components": [{"name": "p", "normals":
                           [{"weight": "0", "rank": 1, "roots": ["0"]}],
                           "integration_table": {}}]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "expand", "--input", str(path), "--operator", "d-theta-q")
    assert code == 3
    assert "ZeroWeight" in err or "validation" in err


def test_v_family_without_v_data_exit_3(capsys):
    code, _, err = run(capsys, "expand", "--operator", "dv-theta-q",
                       "--input", "catalog:s2-rotation")
    assert code == 3
    assert "requires V data on every component" in err


def test_degree_beyond_cap_exit_3(capsys):
    code, _, err = run(capsys, "jacobi", "--input", "catalog:s2-v-double-tangent",
                       "--operator", "dv-theta-q", "--degree", "6")
    assert code == 3


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "expand", "--input", "/nonexistent/x.json",
                       "--operator", "witten-h")
    assert code == 2


def test_a_closed_stdout_exits_141_quietly():
    # the reader closes the pipe at once, as `eqgenus expand ... | head`
    # can: a broken pipe is no missing input file (exit 2), and at exit
    # there is no "Exception ignored" line either
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eqgenus.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "eqgenus.cli", "expand", "--input",
                             "catalog:s2-family-base", "--operator", "dv-theta-q", "--order",
                             "48"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def _set_sign_null(d):
    d["components"][0]["sign"] = None


def _set_roots_int(d):
    d["components"][0]["normals"][0]["roots"] = 0


def _set_table_string(d):
    d["components"][0]["integration_table"] = "1/2"


def _set_components_null(d):
    d["components"] = None


def _set_fiber_half_dim_list(d):
    d["fiber_half_dim"] = [1]


def _set_weight_true(d):
    d["components"][0]["normals"][0]["weight"] = True


def _set_generator_name_null(d):
    d["base_generators"][0]["name"] = None


def _set_weight_decimal(d):
    d["components"][0]["normals"][0]["weight"] = "0.5"


def _set_k_alpha_negative(d):
    # the degree cap 2 k_alpha + base_degree_cap stays nonnegative
    d["components"][0]["k_alpha"] = -1


def _set_name_list(d):
    # a name is checked as a string, not converted with str()
    d["name"] = ["x", {"y": 1}]


def _set_component_name_int(d):
    d["components"][0]["name"] = 7


@pytest.mark.parametrize("mutate, json_path", [
    (_set_sign_null, "$.components[0].sign"),
    (_set_roots_int, "$.components[0].normals[0].roots"),
    (_set_table_string, "$.components[0].integration_table"),
    (_set_components_null, "$.components"),
    (_set_fiber_half_dim_list, "$.fiber_half_dim"),
    (_set_weight_true, "$.components[0].normals[0].weight"),
    (_set_generator_name_null, "$.base_generators[0]"),
    (_set_weight_decimal, "$.components[0].normals[0].weight"),
    (_set_k_alpha_negative, "$.components[0]"),
    (_set_name_list, "$.name"),
    (_set_component_name_int, "$.components[0].name"),
])
def test_mistyped_field_exit_2_with_path(capsys, tmp_path, mutate, json_path):
    payload = dataset_to_json(builtin("s2-family-base").data)
    mutate(payload)
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--operator", "dv-theta-q", "--order", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: %s: " % json_path)


def _set_base_cap(cap):
    def mutate(d):
        d["base_degree_cap"] = cap
    return mutate


def _set_k_alpha(k_alpha):
    def mutate(d):
        d["components"][0]["k_alpha"] = k_alpha
    return mutate


def _set_rank_without_roots(rank):
    def mutate(d):
        normal = d["components"][0]["normals"][0]
        normal.pop("roots", None)
        normal["rank"] = rank
    return mutate


def _scale_weights(factor):
    # every normal and V weight times factor: still valid data
    def mutate(d):
        for c in d["components"]:
            for b in c["normals"] + c["v"]:
                b["weight"] = str(int(b["weight"]) * factor)
    return mutate


def _set_weight_exponent(d):
    d["components"][0]["normals"][0]["weight"] = "1e999999999"


def _repeat_components(times):
    def mutate(d):
        d["components"] = d["components"] * times
    return mutate


def _add_v_lines(count):
    def mutate(d):
        d["components"][0]["v"] += [{"weight": "0", "rank": 1}] * count
    return mutate


def test_negative_cap_exit_2_with_path(capsys, tmp_path):
    payload = dataset_to_json(builtin("s2-family-base").data)
    payload["components"][0]["k_alpha"] = -3
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--operator", "dv-theta-q", "--order", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: $.components[0]: ")


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_process(*argv):
    """The CLI in a separate process under a timeout and a 1 GB
    address-space limit: without their bounds these commands run
    unbounded."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eqgenus.__file__)))
    return subprocess.run([sys.executable, "-m", "eqgenus.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=20, preexec_fn=_limit_memory)


@pytest.mark.parametrize("mutate, argv, json_path", [
    (_set_base_cap(10 ** 6), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.base_degree_cap"),
    (_set_base_cap(10 ** 6), ["jacobi", "--operator", "dv-theta-q", "--samples", "1"],
     "$.base_degree_cap"),
    (_set_k_alpha(10 ** 6), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0]"),
    (_set_base_cap(100), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.base_degree_cap"),
    (_set_base_cap(100), ["rigidity", "--operator", "all", "--order", "16"],
     "$.base_degree_cap"),
    (_set_base_cap(10), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.base_degree_cap"),
    (_set_k_alpha(3), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0]"),
    (_set_rank_without_roots(10 ** 6), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0].normals[0].rank"),
    (_set_rank_without_roots(10 ** 9), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0].normals[0].rank"),
    (_add_v_lines(16), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0].v[16].rank"),
    (_scale_weights(10 ** 5), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0].normals[0].weight"),
    (_scale_weights(10 ** 5), ["rigidity", "--operator", "all", "--order", "16"],
     "$.components[0].normals[0].weight"),
    (_set_weight_exponent, ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components[0].normals[0].weight"),
    (_repeat_components(10 ** 4), ["expand", "--operator", "dv-theta-q", "--order", "8"],
     "$.components"),
], ids=["base-cap-expand", "base-cap-jacobi", "k-alpha-expand", "cap-100-expand",
        "cap-100-rigidity", "cap-10-expand", "component-cap-10-expand", "rank-1e6-expand",
        "rank-1e9-expand", "v-total-rank-expand", "weight-1e5-expand", "weight-1e5-rigidity",
        "weight-exponent-expand", "components-1e4-expand"])
def test_oversized_ring_exit_2_with_path(tmp_path, mutate, argv, json_path):
    payload = dataset_to_json(builtin("s2-family-base").data)
    mutate(payload)
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(payload))
    proc = _cli_process(argv[0], "--input", str(path), *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error: %s: " % json_path)


_S2 = ("--input", "catalog:s2-rotation")


@pytest.mark.parametrize("argv, code, prefix", [
    (["expand", *_S2, "--operator", "d-theta-q", "--order", "-8"], 3, "validation error: order "),
    (["expand", *_S2, "--operator", "d-theta-q", "--order", "-1"], 3, "validation error: order "),
    (["expand", *_S2, "--operator", "d-theta-q", "--order", "257"], 3, "validation error: order "),
    (["rigidity", *_S2, "--order", "-1"], 3, "validation error: order "),
    (["rigidity", *_S2, "--order", "512"], 3, "validation error: order "),
    (["rigidity", *_S2, "--order", "100000"], 3, "validation error: order "),
    (["theta", "--kind", "theta", "--formal", "--order", "-1"], 3, "validation error: order "),
    (["theta", "--kind", "theta", "--formal", "--order", "257"], 3, "validation error: order "),
    (["theta", "--kind", "theta", "--formal", "--m", "1e99999999"], 2, "parse error: --m: "),
    (["theta", "--kind", "theta", "--formal", "--m", "1/0"], 2, "parse error: --m: "),
    (["jacobi", *_S2, "--operator", "witten-h", "--samples", "0"], 3,
     "validation error: --samples "),
    (["jacobi", *_S2, "--operator", "witten-h", "--samples", "-3"], 3,
     "validation error: --samples "),
    (["jacobi", *_S2, "--operator", "witten-h", "--samples", "1025"], 3,
     "validation error: --samples "),
    (["jacobi", *_S2, "--operator", "witten-h", "--tol", "2"], 3, "validation error: --tol "),
    (["theta", "--kind", "theta", "--eps", "inf"], 3, "validation error: --eps "),
    # below the double-precision epsilon: 5e-324 read as non-finite (exit 4),
    # 1e-320 printed a value "within relative 1e-320", and jacobi's 5e-324
    # named an eps the user never gave
    (["theta", "--kind", "theta3", "--t", "0.3", "--tau", "1i", "--eps", "5e-324"], 3,
     "validation error: --eps 5e-324 outside [2.220446049250313e-16, 1)"),
    (["theta", "--kind", "theta3", "--t", "0.3", "--tau", "1i", "--eps", "1e-320"], 3,
     "validation error: --eps 1e-320 outside [2.220446049250313e-16, 1)"),
    (["jacobi", *_S2, "--operator", "witten-h", "--tol", "5e-324"], 3,
     "validation error: --tol 5e-324 outside [2.220446049250313e-16, 1)"),
    (["theta", "--kind", "theta", "--tau", "nan+1i"], 3, "validation error: complex number "),
    (["theta", "--kind", "theta", "--t", "1e999"], 3, "validation error: complex number "),
    # off the upper half plane theta exited 4 where zeros exits 3
    (["theta", "--kind", "theta", "--tau", "-1i"], 3,
     "validation error: tau must lie in the upper half plane"),
    (["theta", "--kind", "theta", "--tau", "0.5"], 3,
     "validation error: tau must lie in the upper half plane"),
    (["zeros", *_S2, "--operator", "witten-h", "--tau", "-1i"], 3,
     "validation error: tau must lie in the upper half plane"),
    (["zeros", *_S2, "--operator", "witten-h", "--tau", "nan+1i"], 3,
     "validation error: complex number "),
    (["zeros", *_S2, "--operator", "witten-h", "--tau", "1+1e999i"], 3,
     "validation error: complex number "),
    (["zeros", *_S2, "--operator", "witten-h", "--tau", "1i", "--origin", "nan"], 3,
     "validation error: complex number "),
    # the true values, 1.48e-324 and 1.30e-341, are below the normal doubles
    (["theta", "--kind", "theta", "--t", "0.3", "--tau", "950i"], 4,
     "computation error: theta underflows "),
    (["theta", "--kind", "theta", "--t", "0.3", "--tau", "1000i"], 4,
     "computation error: theta underflows "),
], ids=["expand-order-minus-8", "expand-order-minus-1", "expand-order-257",
        "rigidity-order-minus-1", "rigidity-order-512", "rigidity-order-1e5",
        "theta-order-minus-1", "theta-order-257", "theta-m-exponent", "theta-m-1-over-0",
        "jacobi-samples-0", "jacobi-samples-minus-3", "jacobi-samples-1025", "jacobi-tol-2",
        "theta-eps-inf", "theta-eps-5e-324", "theta-eps-1e-320", "jacobi-tol-5e-324",
        "theta-tau-nan", "theta-t-1e999", "theta-tau-minus-1i", "theta-tau-0.5",
        "zeros-tau-minus-1i", "zeros-tau-nan",
        "zeros-tau-1e999i", "zeros-origin-nan", "theta-tau-950i", "theta-tau-1000i"])
def test_cli_numbers_that_set_the_work_are_bounded(argv, code, prefix):
    proc = _cli_process(*argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix)


@pytest.mark.parametrize("argv, message", [
    # w = e^{pi i t} at Im t near 122 underflowed in the pole check's w^{2m}
    # with m < 0, and the error named a negative power of 0.0
    (["--input", "catalog:s2-family-base", "--operator", "dv-star-difference",
      "--tau", "150i"], "computation error: w^{2m} is 0 or not finite at t=(0.2335+"),
    # the error printed the product's factor count, a 300-digit number
    (["--input", "catalog:s2-v-double-tangent", "--operator", "dv-theta-q",
      "--tau", "1e-300i"], "computation error: product needs more than 100000 factors"),
], ids=["tau-150i", "tau-1e-300i"])
def test_zeros_out_of_range_ends_in_a_short_computation_error(capsys, argv, message):
    code, out, err = run(capsys, "zeros", *argv)
    assert code == 4
    assert out == ""
    assert err.startswith(message)
    assert len(err) < 120


def test_theta_small_normal_value_prints(capsys):
    # 800i is still above the underflow: the value agrees with 30-digit mpmath
    code, out, _ = run(capsys, "theta", "--kind", "theta", "--t", "0.3", "--tau", "800i")
    assert code == 0
    assert out == "theta((0.3+0j), 800j) = (2.156338176639579e-273+0j) (within relative 1e-12)\n"


@pytest.mark.parametrize("t, tau", [("0.5", "1i"), ("1.5", "1i"), ("0.5", "0.2+0.01i"),
                                    ("0.5", "0.01i")])
def test_theta1_real_zeros_are_exact(capsys, t, tau):
    # theta1 vanishes at t in 1/2 + Z for every tau; the modular reduction
    # would leave a residue of about 1e-16 there, or underflow at small Im tau
    code, out, _ = run(capsys, "theta", "--kind", "theta1", "--t", t, "--tau", tau,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == {"re": 0.0, "im": 0.0}


def test_theta1_next_to_a_real_zero_is_not_zero(capsys):
    code, out, _ = run(capsys, "theta", "--kind", "theta1", "--t", "0.5000000001",
                       "--tau", "1i", "--format", "json")
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(complex(value["re"], value["im"])) > 1e-10


@pytest.mark.parametrize("kind, t, tau", [("theta3", "0.5+0.5i", "1i"), ("theta2", "0.5i", "1i"),
                                          ("theta2", "0.005i", "0.01i"),
                                          ("theta2", "2-0.5i", "1i"),
                                          ("theta3", "-0.625-0.25i", "0.25+0.5i")])
def test_theta2_theta3_zeros_next_to_the_real_axis_are_exact(capsys, kind, t, tau):
    # theta2 vanishes at t in +-tau/2 + Z and theta3 at t in 1/2 +- tau/2 + Z;
    # the reduction would leave -1.2e-16j at the first point, underflow at
    # the second and give 9.59e-50 at the third
    code, out, _ = run(capsys, "theta", "--kind", kind, "--t=" + t, "--tau", tau,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == {"re": 0.0, "im": 0.0}


@pytest.mark.parametrize("kind, t, tau", [("theta3", "0.5000000001+0.5i", "1i"),
                                          ("theta2", "0.5000000001i", "1i")])
def test_theta2_theta3_next_to_a_zero_are_not_zero(capsys, kind, t, tau):
    code, out, _ = run(capsys, "theta", "--kind", kind, "--t", t, "--tau", tau,
                       "--format", "json")
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(complex(value["re"], value["im"])) > 1e-10


@pytest.mark.parametrize("argv", [
    ["theta", "--kind", "theta", "--t", "0.3", "--tau", "-0.2+0.8i"],
    ["zeros", "--input", "catalog:s2-family-base", "--operator", "dv-star-difference",
     "--tau", "-0.3+1.2i"],
    ["theta", "--kind", "theta", "--t", "-1e-3"],
    ["theta", "--kind", "theta2", "--formal", "--m", "-1/2", "--order", "8"],
], ids=["theta-tau", "zeros-tau", "theta-t", "theta-formal-m"])
def test_a_value_starting_with_a_dash_is_read_as_a_value(capsys, argv):
    # argparse takes only plain decimals like -0.3 as values; each of these
    # exited 2 with "expected one argument", while the --flag=VALUE form ran
    i = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[:2] != "--")
    joined = argv[:i - 1] + [argv[i - 1] + "=" + argv[i]] + argv[i + 1:]
    want = run(capsys, *joined)
    assert want[0] == 0 and want[1]
    assert run(capsys, *argv) == want


def test_a_negative_eps_is_out_of_range(capsys):
    code, out, err = run(capsys, "theta", "--kind", "theta", "--eps", "-1e-3")
    assert (code, out) == (3, "")
    assert err.startswith("validation error: --eps ")


def _loaded_modules(tmp_path, script, *flags):
    """The eqgenus modules, and fractions, that a fresh interpreter has
    loaded at each ``mark()`` of ``script``; sys.argv[1] is a dataset file."""
    path = tmp_path / "s2v.json"
    path.write_text(json.dumps(dataset_to_json(builtin("s2-v-double-tangent").data)))
    prelude = ("import sys\n"
               "def mark():\n"
               "    print('loaded:', *sorted(m for m in sys.modules\n"
               "                             if m.split('.')[0] in ('eqgenus', 'fractions')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eqgenus.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + script, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()[1:]) for line in proc.stdout.splitlines()
            if line.startswith("loaded:")]


def test_each_command_loads_only_the_stack_it_runs(tmp_path):
    # the numeric stack, theta's evaluator, the commands off the exact
    # stack, the dataset writer and the reference checks stay off the exact
    # commands' import path; jacobi and zeros never compile theta; and the
    # law suite needs theta, its tables and the product truncation alone
    [theta] = _loaded_modules(tmp_path, "import eqgenus.theta\nmark()", "-S")
    assert theta == {"eqgenus", "eqgenus.kinds", "eqgenus.truncation", "eqgenus.theta"}
    script = ("from eqgenus.cli import main\nmark()\n"
              "assert main(['rigidity', '--input', sys.argv[1], '--order', '8']) == 0\n"
              "assert main(['expand', '--input', sys.argv[1], '--order', '8',\n"
              "             '--operator', 'dv-theta-q']) == 0\nmark()\n"
              "assert main(['jacobi', '--input', sys.argv[1], '--samples', '2',\n"
              "             '--operator', 'dv-theta-q']) == 0\nmark()")
    imported, exact, jacobi = _loaded_modules(tmp_path, script)
    assert imported == exact == {"fractions", "eqgenus"} | {
        "eqgenus." + m for m in ("algebra", "kinds", "genera", "localization", "dataset", "cli")}
    numeric = exact | {"eqgenus." + m for m in ("jacobi", "numeric", "truncation", "cli_extra")}
    assert jacobi == numeric
    script = ("from eqgenus.cli import main\n"
              "assert main(['zeros', '--input', sys.argv[1], '--operator', 'dv-theta-q',\n"
              "             '--tau', '0.5+1.2i']) == 0\nmark()")
    assert _loaded_modules(tmp_path, script) == [numeric]


def test_only_expand_loads_hashlib():
    # expand prints the dataset's digest; rigidity prints none, so it never
    # loads hashlib (and OpenSSL's _hashlib with it)
    script = ("import sys; from eqgenus.cli import main\n"
              "for cmd in ('rigidity', 'expand'):\n"
              "    argv = [cmd, '--input', 'catalog:s2-rotation', '--operator', 'ds-theta-prime']\n"
              "    assert main(argv) == 0\n"
              "    print(cmd, 'hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eqgenus.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.endswith((" True", " False"))] \
        == ["rigidity False", "expand True"]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # the record classes are namedtuples: importing dataclasses, which pulls
    # in inspect, ast, dis and tokenize, costs every command start-up time;
    # so does hashlib, which only a dataset digest needs
    script = ("import sys; import eqgenus.cli, eqgenus.jacobi, eqgenus.catalog\n"
              "print(sorted(m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eqgenus.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ("rigidity", "--input", "catalog:no-such-entry"),
    ("catalog", "emit", "no-such-entry"),
], ids=["rigidity", "catalog-emit"])
def test_unknown_catalog_entry_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("validation error: unknown catalog entry 'no-such-entry'")


@pytest.mark.parametrize("command, function, error", [
    ("zeros", "count_zeros", "BoundaryZero"),
    ("zeros", "count_zeros", "NonFiniteSample"),
    ("jacobi", "check_jacobi", "BoundaryZero"),
    ("jacobi", "check_jacobi", "NonFiniteSample"),
])
def test_jacobi_errors_exit_4(monkeypatch, capsys, command, function, error):
    from eqgenus import jacobi

    def fail(*args, **kwargs):
        raise getattr(jacobi, error)("injected")

    monkeypatch.setattr(jacobi, function, fail)
    extra = ("--tau", "0.5+1.2i") if command == "zeros" else ("--samples", "2")
    code, out, err = run(capsys, command, "--input", "catalog:s2-v-double-tangent",
                         "--operator", "dv-theta-q", *extra)
    assert code == 4
    assert out == ""
    assert err == "computation error: injected\n"


def _set_sign_3(d):
    d["components"][0]["sign"] = 3


def _set_fiber_half_dim_2(d):
    d["fiber_half_dim"] = 2


@pytest.mark.parametrize("mutate, message", [
    (_set_sign_3, "orientation sign must be +-1"),
    (_set_fiber_half_dim_2, "!= fiber half-dimension 2"),
], ids=["sign-3", "rank-mismatch"])
def test_zeros_validates_the_dataset(tmp_path, capsys, mutate, message):
    doc = dataset_to_json(builtin("s2-v-double-tangent").data)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "zeros", "--input", str(path),
                         "--operator", "dv-theta-q", "--tau", "0.5+1.2i")
    assert code == 3
    assert out == ""
    assert err.startswith("validation error: ") and message in err


def test_rigidity_normalized_all(capsys):
    # with --normalized, "all" means the operators with a dim-normalized variant
    code, out, _ = run(capsys, "rigidity", "--input", "catalog:s2-family-base",
                       "--normalized", "--order", "8", "--format", "json")
    assert code == 0
    expected = {k.value for k in NON_V_KINDS + V_KINDS if k.supports_normalized}
    assert expected and set(json.loads(out)["verdicts"]) == expected
    # without V data none has one
    code, out, err = run(capsys, "rigidity", *_S2, "--normalized", "--order", "8")
    assert code == 3
    assert out == ""
    assert "dim-normalized" in err and "V data" in err


@pytest.mark.parametrize("expr", ["1/0*b", "--b", "- -b", "b--b", "-", "b +", "2"],
                         ids=["zero-denominator", "double-minus", "spaced-double-minus",
                              "inner-double-minus", "lone-minus", "dangling-plus", "constant"])
def test_malformed_root_expression_exit_2_with_path(capsys, tmp_path, expr):
    payload = dataset_to_json(builtin("s2-family-base").data)
    payload["components"][0]["normals"][0]["roots"][0] = expr
    path = tmp_path / "bad-root.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "expand", "--input", str(path), "--operator", "dv-theta-q",
                         "--order", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: $.components[0].normals[0].roots[0]: ")


@pytest.mark.parametrize("key", ["2*y", "1/2*y", "y*2"])
def test_malformed_table_key_exit_2_with_path(capsys, tmp_path, key):
    # with no fiber_generators, the inference reads only generator names,
    # so the numeric factor reaches parse_monomial, not validation
    doc = {"format": 1, "fiber_half_dim": 1,
           "components": [{"name": "all", "k_alpha": 1, "sign": 1, "tangent_roots": ["2*y"],
                           "normals": [], "integration_table": {key: "1"}}]}
    path = tmp_path / "bad-key.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--operator", "ds-theta-prime", "--order", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: $.components[0].integration_table[%r]: " % key)


def _field_paths(node, path=()):
    """Every key or index path of a JSON value, containers included."""
    out = [path] if path else []
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out += _field_paths(child, path + (key,))
    return out


_FUZZ_VALUES = [None, True, False, 0.5, -2.5, "", "x", "1/0", "1e999999999", "-99999999",
                [], [0], ["b"], {}, -1, -(10 ** 12), 10 ** 12, 2 ** 64]


def test_fuzz_single_field_mutations(capsys, tmp_path):
    # 200 seeded single-field mutations of s2-family-base: each run ends in
    # an exit code, never in an exception or an unbounded computation
    base = dataset_to_json(builtin("s2-family-base").data)
    paths = _field_paths(base)
    rng = random.Random(4)
    path_file = tmp_path / "mutant.json"
    codes = []
    for _ in range(200):
        payload = json.loads(json.dumps(base))
        *parents, key = rng.choice(paths)
        node = payload
        for p in parents:
            node = node[p]
        node[key] = value = rng.choice(_FUZZ_VALUES)
        path_file.write_text(json.dumps(payload))
        code = main(["expand", "--input", str(path_file), "--operator", "dv-theta-q",
                     "--order", "8"])
        capsys.readouterr()
        assert code in (0, 2, 3, 4), (parents, key, value, code)
        codes.append(code)
    # the mutations reach every stage: parsing, validation and computing
    assert {0, 2, 3} <= set(codes)


def test_rigidity_corrupted_dataset(capsys, tmp_path):
    payload = dataset_to_json(builtin("cp3-weighted").data)
    payload["components"][0]["normals"][0]["weight"] = "-1"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "rigidity", "--input", str(path),
                       "--operator", "d-theta-q", "--order", "16")
    assert code == 0
    assert "NOT rigid" in out and "witness" in out


def test_jacobi_cli(capsys):
    code, out, _ = run(capsys, "jacobi", "--input", "catalog:s2-v-double-tangent",
                       "--operator", "dv-theta-q", "--degree", "0",
                       "--samples", "6", "--tol", "1e-8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["index"] == "1/2" and payload["weight"] == 1


@pytest.mark.parametrize("entry", ["s4-rotation", "s2xs2-birotation"])
def test_jacobi_passes_the_zero_function(capsys, entry):
    # witten-h vanishes on these entries: F is rounding noise, which the
    # lattice law's factor lifts above the tolerance, so |F| decides
    argv = ["jacobi", "--input", "catalog:" + entry, "--operator", "witten-h"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["identically_zero"] and payload["passed"]
    assert payload["max_lattice_discrepancy"] > 0 and payload["max_modular_discrepancy"] > 0
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "IdenticallyZero" in out and out.splitlines()[-1] == "PASS"


def test_jacobi_nonzero_function_is_not_called_zero(capsys):
    # sampled |F| reaches 2 here, far above the zero floor
    code, out, _ = run(capsys, "jacobi", "--input", "catalog:s2-family-base",
                       "--operator", "dv-star-difference", "--degree", "0", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and not payload["identically_zero"]
    assert max(payload["max_lattice_discrepancy"], payload["max_modular_discrepancy"]) < 1e-14


@pytest.mark.parametrize("operator", ["dv-star-difference", "delta-v-theta-prime"])
@pytest.mark.parametrize("order", ["0", "1"])
def test_expand_below_the_q_shift(capsys, operator, order):
    # both families carry q^{1/8} over one TX and two V lines: at order 0
    # nothing is known yet, and the report has the shape of order 1
    code, out, _ = run(capsys, "expand", "--input", "catalog:s2-v-double-tangent",
                       "--operator", operator, "--order", order, "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"1": {"0/8": "0"}}


def test_zeros_cli(capsys):
    code, out, _ = run(capsys, "zeros", "--input", "catalog:s2-v-double-tangent",
                       "--operator", "dv-theta-q", "--tau", "0.5+1.2i")
    assert code == 0
    assert "IdenticallyZero" in out or "zero count" in out


def test_zeros_text_count_has_no_negative_zero(capsys):
    # the winding sum lands a hair below zero here; the text report prints
    # 0.0000 and the JSON count keeps the raw sum
    argv = ("zeros", "--input", "catalog:s2-family-base",
            "--operator", "dv-star-difference", "--tau", "0.5+1.2i")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "zero count over the (2Z)^2 cell at tau=(0.5+1.2j): 0.0000"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["count"]) < 1e-9


@pytest.mark.parametrize("argv", [
    ("rigidity", "--input", "catalog:s2-family-base", "--order", "8"),
    ("jacobi", "--input", "catalog:s2-v-double-tangent", "--operator", "dv-theta-q",
     "--samples", "2"),
    ("zeros", "--input", "catalog:s2-v-double-tangent", "--operator", "dv-theta-q",
     "--tau", "0.5+1.2i"),
], ids=["rigidity-all", "jacobi", "zeros"])
def test_each_command_validates_its_dataset_once(monkeypatch, capsys, argv):
    from eqgenus import localization
    calls = []
    validate = localization.validate
    monkeypatch.setattr(localization, "validate",
                        lambda data: calls.append(data) or validate(data))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", names())
def test_rigidity_all_builds_and_inverts_each_theta_denominator_once(monkeypatch, capsys,
                                                                      name):
    # U, theta over the TX lines, is the one series that the exact path
    # divides by theta pair factors (each family divides only by scalar
    # factors); one command reads the lines of each component class's
    # representative (test_localization pins the classes), and builds U and
    # expands its inverse once, for every kind; each class has one exact
    # backend, which serves U and every kind's numerator
    from eqgenus import genera
    from eqgenus.localization import _component_classes
    read, built, inverted, backends, numerators = [], [], [], [], []
    lines, denominator, expand = genera._lines, genera._denominator, genera._expand
    backend, numerator = genera._SeriesBackend, genera._numerator

    def counting_expand(c, f):
        if any(isinstance(a, GradedElement) and m < 0 for _, a, _, m in f.factors):
            inverted.append(f)
        return expand(c, f)

    monkeypatch.setattr(genera, "_lines", lambda comp: read.append(comp) or lines(comp))
    monkeypatch.setattr(genera, "_denominator",
                        lambda be, *parts: built.append(be) or denominator(be, *parts))
    monkeypatch.setattr(genera, "_expand", counting_expand)
    monkeypatch.setattr(genera, "_SeriesBackend",
                        lambda *args: backends.append(backend(*args)) or backends[-1])
    monkeypatch.setattr(genera, "_numerator",
                        lambda be, recipe: numerators.append(be) or numerator(be, recipe))
    code, out, _ = run(capsys, "rigidity", "--input", "catalog:" + name, "--order", "24",
                       "--format", "json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) >= 3
    components = builtin(name).data.components
    firsts = [c.name for c, _, _ in _component_classes(components)]
    assert len(firsts) < len(components) or name == "s4-rotation"
    assert [c.name for c in read] == firsts
    assert len(built) == len(inverted) == len(read)
    assert [id(be) for be in backends] == [id(be) for be in built]
    assert [id(be) for be in numerators] == [id(be) for be in built for _ in verdicts]


def test_theta_cli_cross_path(capsys):
    code, out, _ = run(capsys, "theta", "--kind", "theta3", "--t", "0.3",
                       "--tau", "1.0i", "--eps", "1e-12", "--format", "json")
    assert code == 0
    val = json.loads(out)["value"]
    from eqgenus.reference import evaluate_formal, theta_formal
    from eqgenus.theta import ThetaKind
    ts = theta_formal(ThetaKind.Theta3, 1, 96)
    ref = evaluate_formal(ts.series, 0.3, 1.0j)
    assert abs(complex(val["re"], val["im"]) - ref) < 1e-9


def test_catalog_list_six(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 6


def test_rigidity_with_v_equal_tx_via_json(capsys, tmp_path):
    payload = dataset_to_json(builtin("s2-rotation").data)
    for comp in payload["components"]:
        comp["v"] = [dict(nb) for nb in comp["normals"]]
    payload["v_half_rank"] = 1
    path = tmp_path / "s2vtx.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "rigidity", "--input", str(path),
                       "--operator", "dv-theta-q", "--order", "16")
    assert code == 0
    assert "anomaly n = 0" in out and "rigid" in out


def test_fibered_component_dataset(capsys, tmp_path):
    # a fixed component that is a whole projective-line fiber: tangent root
    # 2y, integration table {y: 1}, no normal summands
    doc = {"format": 1, "fiber_half_dim": 1,
           "components": [{"name": "all", "k_alpha": 1, "sign": 1,
                           "tangent_roots": ["2*y"],
                           "normals": [],
                           "integration_table": {"y": "1"}}]}
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "expand", "--input", str(path),
                       "--operator", "ds-theta-prime", "--order", "8",
                       "--format", "json")
    assert code == 0
    coeffs = json.loads(out)["coefficients"]["1"]
    # signature of the sphere: the q^0 pushforward vanishes
    assert coeffs.get("0/8", "0") == "0"


@pytest.mark.parametrize("argv", [
    ("jacobi", "--input", "catalog:s2-family-base", "--operator", "dv-theta-q"),
    ("zeros", "--input", "catalog:s2-family-base", "--operator", "dv-theta-q",
     "--tau", "0.5+1.2i"),
], ids=["jacobi", "zeros"])
def test_raw_flag_is_rejected(capsys, argv):
    # both commands check the dim-normalized family only
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--raw"])
    assert exc.value.code == 2
    assert "--raw" in capsys.readouterr().err


def test_validation_warning_goes_to_stderr(capsys, tmp_path):
    # a fixed line whose table integrates y to -1 under sign +1: the top
    # tangent root pairs against the declared orientation
    doc = {"format": 1, "fiber_half_dim": 1,
           "components": [{"name": "all", "k_alpha": 1, "sign": 1,
                           "tangent_roots": ["y"], "normals": [],
                           "integration_table": {"y": "-1"}}]}
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--operator", "ds-theta-prime", "--order", "8", "--format", "json")
    assert code == 0
    json.loads(out)
    warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1 and "orientation" in warnings[0]
