import importlib.resources as resources
import json
from pathlib import Path

import pytest
from jsonschema.validators import validator_for

from lspkit.cli import SCHEMAS, bundled_config, main, run

# a readable JSON file that is not a Cantor tree
_NOT_A_TREE = resources.files("lspkit.configs") / "boxdim_point.json"


def test_transform_report():
    code, report = run("transform", bundled_config("transform_demo.json"))
    assert code == 0
    assert report["results"]["transformed_radius"] == pytest.approx(0.2, rel=1e-9)
    assert report["results"]["corollary_exponent"] == pytest.approx(0.5)


def test_fit_lsp_bundled_cantor():
    code, report = run("fit-lsp", bundled_config("fit_lsp_cantor.json"))
    assert code == 0
    kappa = report["results"]["fit"]["kappa_hat"]
    assert 0.58 <= kappa <= 0.68


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["transform", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "covering-exponent"}))  # misses master_seed
    assert main(["randsim", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "command, name, drop, override",
    [
        ("cover", "cover_kgb_vdc.json", "stages", None),
        ("cover", "cover_kgb_vdc.json", "region", None),
        ("cover", "cover_caj_line.json", "model", None),
        ("cover", "cover_caj_line.json", "region", None),
        ("cover", "cover_caj_line.json", "upsilon", None),
        ("randsim", "randsim_points_tau2.json", "N_list", None),
        ("randsim", "randsim_bc.json", "rules", None),
        ("randsim", "randsim_bc.json", None, "N=0"),
        ("randsim", "randsim_bc.json", None, "J=0"),
        ("randsim", "randsim_bc.json", None, "J=500"),
        ("randsim", "randsim_bc.json", None, "trials=abc"),
        ("randsim", "randsim_bc.json", None, "x=[0.3,0.2]"),
        ("randsim", "randsim_points_tau2.json", None, "scheme.s=0"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=0"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=-5"),
        ("minkowski", "minkowski_segment.json", None, "samples_per_scale=0"),
        ("randsim", "randsim_lines_tau2.json", None, "scheme.base.basis=[[0.7071067811865476,0.7071067811865476]]"),
        ("cantor-verify", "cantor_audit.json", None, "tree=/nonexistent/tree.json"),
        ("cantor-verify", "cantor_audit.json", None, f"tree={_NOT_A_TREE}"),
        ("cantor-build", "cantor_holder.json", None, "depth=1"),
        ("randsim", "randsim_bc.json", None, "master_seed=-1"),
        ("randsim", "randsim_points_tau2.json", None, f"master_seed={2**64}"),
        ("fit-lsp", "fit_lsp_line.json", None, "master_seed=-3"),
        ("boxdim", "boxdim_segment.json", None, "master_seed=-3"),
        ("cover", "cover_five_r.json", None, f"master_seed={2**64}"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.05,0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.0,0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.01,Infinity]"),
        ("cover", "cover_five_r.json", None, "dim=0"),
        ("cover", "cover_five_r.json", None, "dim=17"),
        ("cover", "cover_five_r.json", None, "count=0"),
        ("cover", "cover_five_r.json", None, "count=10001"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=abc"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=[1]"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=-1"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=1000001"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=999"),
    ],
)
def test_missing_or_invalid_keys_exit_2(tmp_path, command, name, drop, override):
    cfg = bundled_config(name)
    cfg.pop(drop, None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)] + (["--set", override] if override else [])
    assert main(argv) == 2


def test_docs_schema_matches_cli():
    doc = Path(__file__).parents[1] / "docs" / "config-schema.json"
    assert json.loads(doc.read_text())["commands"] == SCHEMAS


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_are_valid(command):
    validator_for(SCHEMAS[command]).check_schema(SCHEMAS[command])


def test_kgb_shortfall_exits_3(tmp_path):
    cfg = bundled_config("cover_kgb_vdc.json")
    cfg["target_fraction"] = 0.95
    cfg["j_max"] = 2000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["cover", "--config", str(path)]) == 3


def test_reports_reproducible_across_threads(tmp_path):
    cfg = bundled_config("randsim_bc.json")
    _, rep1 = run("randsim", cfg, out_dir=tmp_path / "a", threads=1)
    _, rep2 = run("randsim", cfg, out_dir=tmp_path / "b", threads=4)
    assert rep1["results"] == rep2["results"]
    on_disk = json.loads((tmp_path / "a" / "report.json").read_text())
    assert on_disk["results"] == rep1["results"]


def test_config_echo_reproduces_results(tmp_path):
    cfg = bundled_config("cover_five_r.json")
    _, rep1 = run("cover", cfg, overrides=["count=60"])
    # rerunning the echoed config must reproduce the results block
    _, rep2 = run("cover", rep1["config"])
    assert rep1["results"] == rep2["results"]
    assert rep1["config"]["count"] == 60


def test_seed_override_changes_results():
    cfg = bundled_config("cover_five_r.json")
    _, rep1 = run("cover", cfg)
    _, rep2 = run("cover", cfg, seed=999)
    assert rep1["results"] != rep2["results"]


def test_cantor_build_and_verify_roundtrip(tmp_path):
    cfg = bundled_config("cantor_audit.json")
    cfg["holder_trials"] = 0
    cfg["save_tree"] = True
    code, report = run("cantor-build", cfg, out_dir=tmp_path)
    assert code == 0
    assert report["results"]["audit_ok"]
    vcfg = dict(cfg)
    vcfg["tree"] = str(tmp_path / "tree.json")
    code2, rep2 = run("cantor-verify", vcfg)
    assert code2 == 0
    assert rep2["results"]["audit_ok"]


def test_bundled_configs_json_idempotent():
    names = [
        p.name
        for p in resources.files("lspkit.configs").iterdir()
        if p.name.endswith(".json")
    ]
    assert len(names) >= 10
    for name in names:
        cfg = bundled_config(name)
        assert json.loads(json.dumps(cfg)) == cfg


def test_cover_caj_bundled():
    code, report = run("cover", bundled_config("cover_caj_line.json"))
    assert code == 0
    assert 8 <= report["results"]["cardinality"] <= 32


def test_tables_written(tmp_path):
    cfg = bundled_config("randsim_points_tau4.json")
    run("randsim", cfg, out_dir=tmp_path)
    table = (tmp_path / "tables" / "counts.csv").read_text().strip().splitlines()
    assert table[0] == "N,side,count"
    assert len(table) == len(cfg["N_list"]) + 1
