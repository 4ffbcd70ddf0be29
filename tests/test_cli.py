import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from starstab.algebra import AlgebraShape
from starstab.cli import main
from starstab.config import parse_config
from starstab.errors import StageAbort
from starstab.experiments import SWEEP_COLUMNS
from starstab.factory import EmbeddingSpec, exact_homomorphism, perturb_additive
from starstab.pipeline import PipelineReport, run_pipeline

FAST_CFG = """\
probes = 80
group_probes = 5
mc_width = 96
unitarize_width = 32
max_levels = 1
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG, encoding="utf-8")
    return str(p)


def test_readme_desk_cfg_parses():
    # the README's example config names only keys that parse_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`desk\.cfg`:\s*```text\n(.*?)```", readme, re.S)
    assert block is not None
    cfg = parse_config(block.group(1))
    assert (cfg.probes, cfg.max_levels, cfg.path) == (96, 1, "units")


def test_budget_command_json(capsys):
    code = main(["budget", "--eps", "1e-6", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eps1"] == 4e-6
    assert "final_bound" in out


def test_budget_command_refuses(capsys):
    code = main(["budget", "--eps", "0.01"])
    assert code == 2


def test_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("probse = 12\n", encoding="utf-8")
    code = main(["budget", "--eps", "1e-6", "--config", str(p)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_recover_command(fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "row.csv"
    code = main(["recover", "--shape", "2", "--mult", "2", "--eta", "1e-3",
                 "--config", fast_cfg, "--seed", "5", "--out", str(out_csv),
                 "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(a["ok"] for a in rep["assertions"])
    lines = out_csv.read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3  # header + row + trailing newline


def test_recover_takes_a_negative_seed(fast_cfg):
    # seeds are taken mod 2**64, as the config accepts any integer
    code = main(["recover", "--shape", "2", "--mult", "2", "--eta", "1e-3",
                 "--config", fast_cfg, "--seed", "-1"])
    assert code == 0


def test_recover_abort_exit_code(fast_cfg, capsys):
    # measured defect 0.097, above the admissible 0.05
    code = main(["recover", "--shape", "2", "--mult", "2", "--eta", "0.05",
                 "--config", fast_cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "abort in stage 'admissibility'" in err
    # multiplicity 0: phi(1) rounds to the zero projection
    code = main(["recover", "--shape", "2", "--mult", "0", "--pad", "2", "--eta", "1e-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "abort in stage 'corner'" in err


def test_recover_exits_1_when_an_assertion_fails(fast_cfg, monkeypatch):
    monkeypatch.setattr(PipelineReport, "ok", lambda self: False)
    code = main(["recover", "--shape", "2", "--mult", "2", "--eta", "1e-3",
                 "--config", fast_cfg])
    assert code == 1


def test_numerical_failure_aborts_the_stage(fast_cfg, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("starstab.pipeline.decompose", broken)
    spec = EmbeddingSpec(AlgebraShape([2]), (2,), 0)
    phi = perturb_additive(exact_homomorphism(spec), 1e-3, seed=5)
    with pytest.raises(StageAbort) as err:
        run_pipeline(phi, parse_config(FAST_CFG))
    assert err.value.stage == "decompose"
    assert isinstance(err.value.cause, np.linalg.LinAlgError)
    assert [s.name for s in err.value.report][-1] == "unitarize"
    code = main(["recover", "--shape", "2", "--mult", "2", "--eta", "1e-3",
                 "--config", fast_cfg])
    assert code == 2
    assert "abort in stage 'decompose'" in capsys.readouterr().err


def test_sweep_command(fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--etas", "1e-3", "--repeats", "1",
                 "--config", fast_cfg, "--seed", "3", "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text(encoding="utf-8")
    lines = [l for l in text.split("\n") if l]
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 4  # default grid has four shapes


def test_kk_command(fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "kk.csv"
    code = main(["kk", "--shape", "2", "--mult", "2", "--eta", "1e-3",
                 "--config", fast_cfg, "--json", "--out", str(out_csv)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["estimate"]["upper"] <= 2e-3 + 1e-6
    (row,) = csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines())
    assert float(row["seconds"]) > 0.0       # the wall clock of the experiment


def test_tower_command(fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "tower.csv"
    code = main(["tower", "--start", "2", "--steps", "2",
                 "--eta", "1e-3", "--config", fast_cfg, "--out", str(out_csv)])
    assert code == 0
    assert "floor 0" in capsys.readouterr().out
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert rows
    for row in rows:        # both ratios divide the distance by powers of eta
        dist = float(row["final_distance"])
        assert float(row["ratio_sqrt"]) == pytest.approx(dist / math.sqrt(1e-3))
        assert float(row["ratio_linear"]) == pytest.approx(dist / 1e-3)
        assert float(row["seconds"]) > 0.0   # the floor's summed stage times


@pytest.mark.parametrize("argv", [
    ["recover", "--shape", "2+x"],
    ["recover", "--mult", "two"],
    ["sweep", "--etas", "1e-3,big"],
    ["tower", "--steps", "2,x"],
    ["sweep", "--repeats", "0"],
    ["sweep", "--repeats", "-2"],
    ["budget", "--eps", "1e-6", "--config", "MISSING"],
    *(["recover", "--shape", "2", "--mult", "2", "--eta", "1e-3", "--config", f"CFG:{line}"]
      for line in ("group_probes = 0", "unitarize_width = 0", "unitarize_width = 1",
                   "det_cap = 0", "max_levels = -1", "mc_width = 1", "generator_count = 1",
                   "probes = 0", "mc_batches = 1")),
])
def test_malformed_input_exits_2_with_one_line(argv, tmp_path, capsys):
    def path(a):
        if a == "MISSING":
            return str(tmp_path / "missing.cfg")
        if a.startswith("CFG:"):        # a config file holding this one line
            (tmp_path / "c.cfg").write_text(a[4:] + "\n", encoding="utf-8")
            return str(tmp_path / "c.cfg")
        return a
    argv = [path(a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse rejects a flag value this way
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = [line for line in err.splitlines() if "error:" in line]
    assert len(message) == 1 and err.rstrip("\n").endswith(message[0])
