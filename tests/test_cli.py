import json
import math
import pathlib

import jsonschema
import pytest
from referencing import Registry, Resource

import qhtbounds
from oracles import classical_beta
from qhtbounds.cli import main

SCHEMA_DIR = pathlib.Path(qhtbounds.__file__).parent / "schemas"

ZZ_ENTRIES = [
    [1, 0], [0, 0], [0, 0], [0, 0],
    [0, 0], [-1, 0], [0, 0], [0, 0],
    [0, 0], [0, 0], [-1, 0], [0, 0],
    [0, 0], [0, 0], [0, 0], [1, 0],
]


def schema_registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


def validate(obj, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema, registry=schema_registry()).validate(obj)


@pytest.fixture()
def specs(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("a.json", {"bloch": [-0.177483, 0.365807, 0.291007]})
    write("b.json", {"bloch": [-0.452239, -0.141906, -0.159193]})
    write("diag_a.json", {"dim": 2, "entries": [[0.7, 0], [0, 0], [0, 0], [0.3, 0]]})
    write("diag_b.json", {"dim": 2, "entries": [[0.4, 0], [0, 0], [0, 0], [0.6, 0]]})
    write(
        "gibbs.json",
        {"type": "gibbs", "site_dim": 2, "beta": 0.05, "h": {"dim": 4, "entries": ZZ_ENTRIES}},
    )
    write(
        "prod.json",
        {"type": "product", "state": {"dim": 2, "entries": [[0.65, 0], [0, 0], [0, 0], [0.35, 0]]}},
    )
    write(
        "bsc.json",
        {
            "alphabet": ["0", "1"],
            "outputs": {
                "0": {"dim": 2, "entries": [[0.9, 0], [0, 0], [0, 0], [0.1, 0]]},
                "1": {"dim": 2, "entries": [[0.1, 0], [0, 0], [0, 0], [0.9, 0]]},
            },
        },
    )
    write(
        "bsc_wide.json",
        {
            "alphabet": ["0", "1"],
            "outputs": {
                "0": {"dim": 2, "entries": [[0.6, 0], [0, 0], [0, 0], [0.4, 0]]},
                "1": {"dim": 2, "entries": [[0.4, 0], [0, 0], [0, 0], [0.6, 0]]},
            },
        },
    )
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_input_specs_validate_against_schemas(specs):
    validate(json.loads(pathlib.Path(specs["a.json"]).read_text()), "state.schema.json")
    validate(json.loads(pathlib.Path(specs["gibbs.json"]).read_text()), "family.schema.json")
    validate(json.loads(pathlib.Path(specs["prod.json"]).read_text()), "family.schema.json")
    validate(json.loads(pathlib.Path(specs["bsc.json"]).read_text()), "channel.schema.json")


def test_divergence_identical_states(specs, capsys):
    code, out, _ = run_cli(capsys, "divergence", specs["a.json"], specs["a.json"])
    assert code == 0
    obj = json.loads(out)
    validate(obj, "divergence_output.schema.json")
    assert abs(obj["rel_entropy"]) <= 1e-10
    assert abs(obj["info_variance"]) <= 1e-10


def test_measure_csv_header(specs, capsys):
    code, out, _ = run_cli(capsys, "measure", specs["a.json"], specs["b.json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "location,weight"
    assert len(lines) == 5  # four atoms for a generic qubit pair


def test_np_exact_matches_classical(specs, capsys):
    code, out, _ = run_cli(capsys, "np-exact", specs["diag_a.json"], specs["diag_b.json"], "--eps", "0.1")
    assert code == 0
    obj = json.loads(out)
    validate(obj, "np_exact_output.schema.json")
    ref = classical_beta([0.7, 0.3], [0.4, 0.6], 0.1)
    assert abs(obj["beta"] - ref) <= 1e-10


def test_bounds_iid_csv(specs, capsys):
    code, out, _ = run_cli(
        capsys, "bounds-iid", specs["a.json"], specs["b.json"], "--n", "3", "--eps", "0.1", "--rate", "0.2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,eps,rate,log_beta_bound"
    assert len(lines) == 5
    assert lines[1].startswith("azuma-stein,3,0.1,")


def test_fig1_echoes_bloch_vectors(specs, capsys):
    code, out, _ = run_cli(capsys, "fig1", "--n", "100", "--grid", "50")
    assert code == 0
    blocks = out.split("\n\n")
    preamble = blocks[0].splitlines()
    assert preamble[0] == "field,v1,v2,v3"
    assert preamble[1].startswith("blochA,-0.177483,0.365807,0.291007")
    assert preamble[2].startswith("blochB,-0.452239,-0.141906,-0.159193")
    table = blocks[1].strip().splitlines()
    assert table[0] == "eps,neg_f,g,h,h_tilde,s1,s2"
    assert len(table) == 51


def test_fig1_deterministic(specs, capsys):
    _, out1, _ = run_cli(capsys, "fig1", "--seed", "5", "--grid", "20")
    _, out2, _ = run_cli(capsys, "fig1", "--seed", "5", "--grid", "20")
    assert out1 == out2


def test_fcs_certify(specs, capsys):
    code, out, _ = run_cli(capsys, "fcs-certify", specs["gibbs.json"], "--n", "3")
    assert code == 0
    obj = json.loads(out)
    validate(obj, "certify_output.schema.json")
    assert abs(obj["R_upper"] - math.exp(0.05) / math.cosh(0.05)) <= 1e-9


def test_bounds_factorized(specs, capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds-factorized", specs["gibbs.json"], specs["prod.json"],
        "--n", "3", "--eps", "0.1", "--rate", "0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,eps,rate,R,log_beta_bound"
    assert len(lines) == 3


def test_moderate_table(specs, capsys):
    code, out, _ = run_cli(
        capsys,
        "moderate", specs["gibbs.json"], specs["prod.json"],
        "--n", "3", "--an-exponent", "0.34", "--exact",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n,eps_n,lower,upper_form,dh_exact"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) <= float(cells[5]) + 1e-9  # lower <= exact d_h


def test_channel_capacity(specs, capsys):
    code, out, _ = run_cli(capsys, "channel", specs["bsc.json"], "capacity")
    assert code == 0
    obj = json.loads(out)
    validate(obj, "capacity_report.schema.json")
    hb = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
    assert abs(obj["chi_star"] - (math.log(2) - hb)) <= 1e-6


def test_channel_wr_bound(specs, capsys):
    code, out, _ = run_cli(
        capsys, "channel", specs["bsc.json"], "wr-bound", "--eps", "0.2", "--eps-prime", "0.05"
    )
    assert code == 0
    validate(json.loads(out), "wr_bound_output.schema.json")


def test_channel_moderate(specs, capsys):
    code, out, _ = run_cli(
        capsys,
        "channel", specs["bsc_wide.json"], "moderate",
        "--n", "10", "--an-exponent", "0.4", "--direction", "lower",
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, "channel_moderate_output.schema.json")
    assert obj["asymptotic_form"] is True


@pytest.mark.parametrize(
    "outputs", [{"a": {"bloch": [0, 0, 1]}}, "ab"], ids=["missing_letter", "not_an_object"]
)
def test_channel_letter_without_output_is_a_domain_error(capsys, tmp_path, outputs):
    spec = tmp_path / "partial.json"
    spec.write_text(json.dumps({"alphabet": ["a", "b"], "outputs": outputs}))
    code, out, err = run_cli(capsys, "channel", str(spec), "capacity")
    assert code == 2
    assert out == ""
    obj = json.loads(err)
    validate(obj, "error.schema.json")
    assert obj["error"]["type"] == "DomainError"


def test_concentration_mc_csv_and_determinism(specs, capsys):
    args = ["concentration-mc", "--model", "skewed", "--n", "50", "--trials", "5000", "--seed", "11"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0].startswith("model,n,trials,seed,side,threshold,bound_azuma")
    assert len(lines) == 4
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_exit_codes_and_error_json(specs, capsys, tmp_path):
    code, _, err = run_cli(capsys, "np-exact", str(tmp_path / "nope.json"), specs["b.json"], "--eps", "0.1")
    assert code == 1
    validate(json.loads(err), "error.schema.json")

    code, _, err = run_cli(capsys, "np-exact", specs["a.json"], specs["b.json"], "--eps", "1.5")
    assert code == 2
    validate(json.loads(err), "error.schema.json")

    code, _, err = run_cli(capsys, "np-exact", specs["a.json"], specs["b.json"], "--eps", "0.1", "--n", "40")
    assert code == 3
    validate(json.loads(err), "error.schema.json")

    code, _, err = run_cli(capsys, "bogus-command")
    assert code == 1
    validate(json.loads(err), "error.schema.json")


def test_output_file_option(specs, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "--output", str(target), "divergence", specs["a.json"], specs["b.json"]
    )
    assert code == 0
    assert out == ""
    validate(json.loads(target.read_text()), "divergence_output.schema.json")


def test_numbers_are_12_significant_digits(specs, capsys):
    _, out, _ = run_cli(capsys, "divergence", specs["a.json"], specs["b.json"])
    obj = json.loads(out)
    for value in obj.values():
        assert float(f"{value:.12g}") == value
