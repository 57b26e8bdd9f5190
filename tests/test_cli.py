from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cellmatch import build_cw, cli, io
from cellmatch.cli import main
from cellmatch.matching import validate_matching

from conftest import shuffled_path_rel_end, subprocess_env


def run(*argv) -> int:
    return main(list(argv))


def test_generate_and_match_circle(tmp_path, capsys):
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    assert run("generate", "circle", "--params", "4", "-o", str(c)) == 0
    assert run("match", str(c), "-o", str(m)) == 0
    data = io.read_json(str(m))
    assert data["format"] == io.MATCHING_FORMAT
    assert len(data["pairs"]) == 4


def test_wedge_is_exit_2_with_certificate(tmp_path):
    w = tmp_path / "w.json"
    cert = tmp_path / "cert.json"
    assert run("generate", "wedge", "-o", str(w)) == 0
    assert run("match", str(w), "-o", str(cert)) == 2
    data = io.read_json(str(cert))
    assert data["format"] == io.CERTIFICATE_FORMAT
    assert data["deficiency"] == 1
    assert len(data["A"]) == 7 and len(data["IA"]) == 6


def test_flow_degenerate_field_is_exit_3(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert run("generate", "grid_square", "--params", "2", "-o", str(g)) == 0
    assert run("flow", str(g), "--field", "0/1,-1/1") == 3
    err = capsys.readouterr().err
    assert "span" in err


def test_flow_zero_denominator_is_exit_1_without_traceback(tmp_path):
    g = tmp_path / "g.json"
    assert run("generate", "grid_square", "--params", "2", "-o", str(g)) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "cellmatch.cli", "flow", str(g), "--field", "1/0,1"],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cellmatch: ") and "'1/0'" in proc.stderr


def test_flow_matching_written(tmp_path):
    g = tmp_path / "g.json"
    m = tmp_path / "m.json"
    assert run("generate", "grid_square", "--params", "2", "-o", str(g)) == 0
    assert run("flow", str(g), "--field", "1/1,-3/1", "-o", str(m)) == 0
    assert run("flow", str(g), "--field", "1,-3", "--base", "random:7", "-o", str(m)) == 0
    data = io.read_json(str(m))
    assert data["format"] == io.MATCHING_FORMAT


@pytest.mark.parametrize("flag, message", [
    (("--field", "bogus"), "bad direction component 'bogus'"),
    (("--field", "1,-3", "--base", "random:x"), "bad --base value 'random:x'"),
    (
        ("--field", "1,-3", "--base", "highest"),
        "bad --base value 'highest'; expected lowest or random:SEED",
    ),
])
def test_flow_flags_checked_before_the_complex_is_read(tmp_path, capsys, flag, message):
    assert run("flow", str(tmp_path / "missing.json"), *flag) == 1
    assert message in capsys.readouterr().err


def test_chi_and_homology(tmp_path, capsys):
    t = tmp_path / "t.json"
    assert run("generate", "torus7", "-o", str(t)) == 0
    assert run("chi", str(t)) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run("homology", str(t)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 2, 1]
    assert run("homology", str(t), "--field", "f2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "f2"


def test_enumerate(tmp_path, capsys):
    c = tmp_path / "c.json"
    assert run("generate", "circle", "--params", "6", "-o", str(c)) == 0
    assert run("enumerate", str(c)) == 0
    assert capsys.readouterr().out.strip() == "2"
    t = tmp_path / "t.json"
    assert run("generate", "torus7", "-o", str(t)) == 0
    assert run("enumerate", str(t)) == 3  # brute-force bound exceeded


@pytest.mark.parametrize("flag, value", [("--bound", "-1"), ("--limit", "-3")])
def test_enumerate_rejects_negative_flags_with_exit_1(tmp_path, capsys, flag, value):
    c = tmp_path / "c.json"
    out = tmp_path / "e.json"
    assert run("generate", "circle", "--params", "4", "-o", str(c)) == 0
    capsys.readouterr()
    assert run("enumerate", str(c), flag, value, "-o", str(out)) == 1
    assert f"{flag} must be nonnegative, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_match_methods(tmp_path, capsys):
    c = tmp_path / "cone.json"
    sub = tmp_path / "apex.json"
    out = tmp_path / "m.json"
    assert run("generate", "cone", "--params", "4", "-o", str(c)) == 0
    io.save_subcomplex(["4"], str(sub))
    assert run("match", str(c), "--rel", str(sub), "--method", "acyclic", "-o", str(out)) == 0
    data = io.read_json(str(out))
    assert len(data["pairs"]) * 2 == 16  # cone over circle(4) minus the apex
    # acyclic method on a non-acyclic pair: precondition exit
    circ = tmp_path / "circ.json"
    assert run("generate", "circle", "--params", "5", "-o", str(circ)) == 0
    assert run("match", str(circ), "--method", "acyclic") == 3
    assert run("match", str(circ), "--method", "hall", "-o", str(out)) == 0


def test_validate_and_orbits(tmp_path, capsys):
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    assert run("generate", "circle", "--params", "3", "-o", str(c)) == 0
    assert run("match", str(c), "-o", str(m)) == 0
    assert run("validate", str(c), "--matching", str(m)) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert run("orbits", str(c), "--matching", str(m)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "cyclic"
    assert len(out["orbit"]) == 6

    # a tampered matching validates with violations and exit 3
    data = io.read_json(str(m))
    data["pairs"] = data["pairs"][:-1]
    io.write_json(str(m), data)
    assert run("validate", str(c), "--matching", str(m)) == 3
    err = capsys.readouterr().err
    assert "uncovered" in err


def test_orbits_of_an_acyclic_matching_write_its_collapse_order(tmp_path, capsys):
    c, sub, m = (str(tmp_path / f"{name}.json") for name in ("c", "sub", "m"))
    assert run("generate", "interval", "--params", "2", "-o", c) == 0
    io.save_subcomplex(["0"], sub)
    assert run("match", c, "--rel", sub, "-o", m) == 0
    capsys.readouterr()
    assert run("orbits", c, "--rel", sub, "--matching", m) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "format": io.ORBIT_FORMAT,
        "classification": "acyclic",
        "collapse_order": [["2", "1.2"], ["1", "0.1"]],
    }


def test_subdivide_and_propagate(tmp_path):
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    sd = tmp_path / "sd.json"
    carrier = tmp_path / "carrier.json"
    pm = tmp_path / "pm.json"
    assert run("generate", "circle", "--params", "3", "-o", str(c)) == 0
    assert run("match", str(c), "-o", str(m)) == 0
    assert (
        run(
            "subdivide", str(c), "-o", str(sd), "--map-out", str(carrier),
            "--propagate", str(m), "--matching-out", str(pm),
        )
        == 0
    )
    sd_complex = io.load_complex(str(sd))
    assert len(sd_complex) == 12
    carrier_data = io.read_json(str(carrier))
    assert carrier_data["format"] == io.SUBDIV_FORMAT
    pm_data = io.read_json(str(pm))
    assert len(pm_data["pairs"]) == 6


def test_subdivide_propagate_without_matching_out_does_no_work(tmp_path):
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    r = tmp_path / "r.json"
    sd = tmp_path / "sd.json"
    pm = tmp_path / "pm.json"
    assert run("generate", "circle", "--params", "3", "-o", str(c)) == 0
    assert run("match", str(c), "-o", str(m)) == 0
    io.save_subcomplex(["0"], str(r))
    assert run("subdivide", str(c), "-o", str(sd), "--propagate", str(m)) == 1
    # --rel and --matching-out act only with --propagate
    assert run("subdivide", str(c), "-o", str(sd), "--matching-out", str(pm)) == 1
    assert run("subdivide", str(c), "-o", str(sd), "--rel", str(r)) == 1
    assert run(
        "subdivide", str(c), "-o", str(sd), "--matching-out", str(pm), "--rel", str(r)
    ) == 1
    assert not sd.exists() and not pm.exists()


def test_subdivide_writes_nothing_when_propagation_fails(tmp_path, capsys):
    c = tmp_path / "c.json"
    bad = tmp_path / "bad.json"
    sd = tmp_path / "sd.json"
    carrier = tmp_path / "map.json"
    pm = tmp_path / "pm.json"
    io.write_json(str(c), _CIRCLE)
    io.write_json(str(bad), {**_MATCHING, "pairs": _MATCHING["pairs"][:-1]})
    assert run(
        "subdivide", str(c), "-o", str(sd), "--map-out", str(carrier),
        "--propagate", str(bad), "--matching-out", str(pm),
    ) == 3
    assert "uncovered" in capsys.readouterr().err
    assert not sd.exists() and not carrier.exists() and not pm.exists()


_CIRCLE = {"format": io.COMPLEX_FORMAT, "kind": "simplicial",
           "simplices": [[0, 1], [0, 2], [1, 2]]}
_MATCHING = {"format": io.MATCHING_FORMAT, "relative_to": [],
             "pairs": [["0", "0.1"], ["0.2", "2"], ["1", "1.2"]]}
_MALFORMED = {
    "simplex_not_a_list": ("chi", {**_CIRCLE, "simplices": [5]}),
    "simplex_a_string": ("chi", {**_CIRCLE, "simplices": ["abc"]}),
    "cw_faces_not_a_list": ("chi", {
        "format": io.COMPLEX_FORMAT, "kind": "cw",
        "cells": [{"id": "a", "dim": 0, "faces": 5}],
    }),
    "pair_member_not_an_id": ("validate", {**_MATCHING, "pairs": [[1, "a"]]}),
    "relative_to_not_a_list": ("validate", {**_MATCHING, "relative_to": 5}),
    "coordinate_not_a_rational": ("chi", {**_CIRCLE, "coordinates": {
        "0": [[1]], "1": ["1"], "2": ["2"],
    }}),
    "cw_record_dangling_face": ("chi", {
        "format": io.COMPLEX_FORMAT, "kind": "cw",
        "cells": [{"id": "a", "dim": 0, "faces": []},
                  {"id": "e", "dim": 1, "faces": ["a", "zz"]}],
    }),
    "simplex_ids_collide_dotted_token": ("chi", {**_CIRCLE, "simplices": [["1.2"], [1, 2]]}),
    "simplex_ids_collide_int_and_str": ("chi", {**_CIRCLE, "simplices": [[1, 2], ["1", 3]]}),
    "subcomplex_cell_not_an_id": ("rel", {
        "format": io.SUB_FORMAT, "cells": [[1]], "closure": False,
    }),
    "subcomplex_closure_not_a_boolean": ("rel", {
        "format": io.SUB_FORMAT, "cells": ["0"], "closure": "false",
    }),
}

_VIOLATIONS = {
    "unknown_cell": ([*_MATCHING["pairs"], ["9", "0.9"]], None, "unknown cell: 9"),
    "cell_in_relative_base": (_MATCHING["pairs"], ["0"], "cell in relative base: 0"),
    "duplicated_cell": ([*_MATCHING["pairs"], ["0", "0.2"]], None, "duplicated: 0"),
}


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_validate_prints_each_violation_with_exit_3(tmp_path, capsys, case):
    pairs, rel, violation = _VIOLATIONS[case]
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    io.write_json(str(c), _CIRCLE)
    io.write_json(str(m), {**_MATCHING, "pairs": pairs})
    argv = ["validate", str(c), "--matching", str(m)]
    if rel is not None:
        io.save_subcomplex(rel, str(tmp_path / "r.json"))
        argv += ["--rel", str(tmp_path / "r.json")]
    assert run(*argv) == 3
    assert violation in capsys.readouterr().err.splitlines()


def test_validate_builds_its_report_only_for_an_invalid_matching(tmp_path, capsys, monkeypatch):
    """A valid matching prints "ok" without the full report; an invalid one
    prints every violation of the report, in its order, with exit 3."""
    reports = []

    def recording(pair, matching):
        reports.append(matching)
        return validate_matching(pair, matching)

    monkeypatch.setattr(cli, "validate_matching", recording)
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    io.write_json(str(c), _CIRCLE)
    io.write_json(str(m), _MATCHING)
    assert run("validate", str(c), "--matching", str(m)) == 0
    assert capsys.readouterr() == ("ok\n", "")
    assert reports == []
    pairs = [["0.1", "0"], ["0.2", "2"], ["1.2", "0"]]  # "0" twice, "1" left over
    io.write_json(str(m), {**_MATCHING, "pairs": pairs})
    assert run("validate", str(c), "--matching", str(m)) == 3
    assert capsys.readouterr() == (
        "", "duplicated: 0\nnot incident: 0 / 1.2\nuncovered: 1\n"
    )
    assert len(reports) == 1


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_artifact_is_exit_1_without_traceback(tmp_path, case):
    role, obj = _MALFORMED[case]
    circle_file = tmp_path / "circle.json"
    bad = tmp_path / "bad.json"
    circle_file.write_text(json.dumps(_CIRCLE), encoding="utf-8")
    bad.write_text(json.dumps(obj), encoding="utf-8")
    argv = {
        "chi": ["chi", str(bad)],
        "validate": ["validate", str(circle_file), "--matching", str(bad)],
        "rel": ["chi", str(circle_file), "--rel", str(bad)],
    }[role]
    proc = subprocess.run(
        [sys.executable, "-m", "cellmatch.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cellmatch: ")


def test_pipeline_sphere(tmp_path):
    s = tmp_path / "s.json"
    m = tmp_path / "m.json"
    assert run("generate", "sphere_boundary", "--params", "4", "-o", str(s)) == 0
    assert run("pipeline", "sphere", str(s), "-o", str(m)) == 0
    assert len(io.read_json(str(m))["pairs"]) == 15
    # even-dimensional sphere: precondition violation
    s2 = tmp_path / "s2.json"
    assert run("generate", "sphere_boundary", "--params", "3", "-o", str(s2)) == 0
    assert run("pipeline", "sphere", str(s2)) == 3


def test_pipeline_sphere_step_without_a_hyperface_is_exit_3_without_traceback(tmp_path):
    """The f2 homology 3-sphere whose only 2-cell has no hyperface."""
    s = tmp_path / "s.json"
    io.save_complex(
        build_cw([("v0", 0, []), ("f", 2, []), ("t0", 3, ["f"]), ("t1", 3, ["f"])]), str(s)
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cellmatch.cli", "pipeline", "sphere", str(s)],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "cellmatch: 3-sphere step: f has no hyperfaces\n"


def test_pipeline_sphere_rejects_loop_flags(tmp_path, capsys):
    """--loop, --circle and --base belong to pipeline loop; pipeline sphere
    rejects each before it reads any file."""
    s = tmp_path / "s.json"
    m = tmp_path / "m.json"
    missing = str(tmp_path / "missing.json")
    assert run("generate", "sphere_boundary", "--params", "4", "-o", str(s)) == 0
    capsys.readouterr()
    for flags in (["--loop"], ["--circle"], ["--base"], ["--base", "--loop", "--circle"]):
        argv = [arg for flag in flags for arg in (flag, missing)]
        assert run("pipeline", "sphere", str(s), *argv, "-o", str(m)) == 1
        assert capsys.readouterr().err == (
            "cellmatch: --loop, --circle and --base require pipeline loop\n"
        )
    assert not m.exists()


def test_dualloop_find_and_loop_pipeline(tmp_path):
    t = tmp_path / "t.json"
    loop = tmp_path / "loop.json"
    m = tmp_path / "m.json"
    assert run("generate", "torus7", "-o", str(t)) == 0
    assert (
        run(
            "dualloop", "find", str(t), "--complement-betti", "1,1,0",
            "--budget", "3000", "-o", str(loop),
        )
        == 0
    )
    loop_data = io.read_json(str(loop))
    assert loop_data["format"] == io.LOOP_FORMAT

    # the found loop feeds the loop pipeline together with a core circle
    circle_file = tmp_path / "core.json"
    io.save_subcomplex(["0", "3", "6", "0.3", "0.6", "3.6"], str(circle_file))
    assert (
        run("pipeline", "loop", str(t), "--loop", str(loop),
            "--circle", str(circle_file), "-o", str(m))
        == 0
    )
    assert len(io.read_json(str(m))["pairs"]) == 21

    # not-found within exhaustive enumeration: exit 2
    s = tmp_path / "s.json"
    assert run("generate", "sphere_boundary", "--params", "3", "-o", str(s)) == 0
    assert run("dualloop", "find", str(s), "--complement-betti", "0,0,0",
               "--budget", "10000") == 2


def test_pipeline_loop_through_every_cell(tmp_path, capsys):
    c, loop, m = (str(tmp_path / name) for name in ("c.json", "loop.json", "m.json"))
    assert run("generate", "circle", "--params", "5", "-o", c) == 0
    assert run("dualloop", "find", c, "--complement-empty", "-o", loop) == 0
    assert run("pipeline", "loop", c, "--loop", loop, "-o", m) == 0
    assert len(io.read_json(m)["pairs"]) == 5
    capsys.readouterr()
    assert run("validate", c, "--matching", m) == 0
    assert capsys.readouterr().out == "ok\n"


def test_pipeline_loop_requires_loop_before_reading_the_complex(tmp_path, capsys):
    assert run("pipeline", "loop", str(tmp_path / "missing.json")) == 1
    assert capsys.readouterr().err == "cellmatch: pipeline loop requires --loop\n"


def test_dualloop_usage_errors_are_exit_1(tmp_path, capsys):
    t = tmp_path / "t.json"
    loop = tmp_path / "loop.json"
    assert run("generate", "torus7", "-o", str(t)) == 0
    capsys.readouterr()
    assert run("dualloop", "find", str(t), "--complement-betti", "1,1,0",
               "--complement-empty", "-o", str(loop)) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert run("dualloop", "find", str(t), "--complement-empty",
               "--budget", "-1", "-o", str(loop)) == 1
    assert "--budget must be nonnegative, got -1" in capsys.readouterr().err
    assert not loop.exists()
    assert run("dualloop", "find", str(t), "--complement-betti", "1,x",
               "-o", str(loop)) == 1
    err = capsys.readouterr().err
    assert "bad --complement-betti value '1,x'; expected integers" in err
    assert not loop.exists()
    assert run("dualloop", "find", str(t), "-o", str(loop)) == 1
    assert capsys.readouterr().err == (
        "cellmatch: dualloop find needs --complement-betti or --complement-empty\n"
    )
    assert not loop.exists()
    # a zero budget is a search that tests nothing: exit 2, no loop
    assert run("dualloop", "find", str(t), "--complement-empty",
               "--budget", "0", "-o", str(loop)) == 2
    assert "within budget 0" in capsys.readouterr().err
    assert not loop.exists()


def test_usage_errors_are_exit_1(tmp_path, capsys):
    assert run("generate", "circle", "--params", "two") == 1
    assert run("match", str(tmp_path / "missing.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run("match", str(bad)) == 1
    assert run("generate", "circle", "--params", "2") == 1  # bad parameter value
    assert run("flow", str(tmp_path / "missing.json"), "--field", "bogus") == 1
    assert run() == 1  # no subcommand


def test_one_parser_serves_every_call_as_if_fresh(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process. A usage error, then calls
    that rely on the defaults, and calls with other flags, in one process,
    each give the exit code, output and files of a call in a fresh one."""
    c = str(tmp_path / "c.json")
    assert run("generate", "grid_square", "--params", "2", "-o", c) == 0
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    calls = [
        ["enumerate", c, "--limit", "x"],
        ["match", c, "--method", "bogus"],
        ["enumerate", c, "--bound", "30"],
        ["enumerate", c, "--limit", "2", "-o", "e.json"],
        ["enumerate", c, "-o", "e0.json"],
        ["homology", c, "--field", "f2"],
        ["homology", c],
        ["match", c, "--method", "hall", "-o", "m1.json"],
        ["match", c, "-o", "m0.json"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    capsys.readouterr()
    for argv in calls:
        code = run(*argv)
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "cellmatch.cli", *argv], cwd=fresh,
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert built == [1]
    assert sorted(p.name for p in here.iterdir()) == ["e.json", "e0.json", "m0.json", "m1.json"]
    for path in here.iterdir():
        assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name


def test_version_and_formats(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--version")
    assert exit_info.value.code == 0
    capsys.readouterr()
    assert run("--formats") == 0
    out = json.loads(capsys.readouterr().out)
    assert io.COMPLEX_FORMAT in out["formats"]
    assert "match" in out["subcommands"]


def test_formats_list_every_tag_the_subcommands_write(tmp_path, capsys):
    """Every file a subcommand writes carries a format ``--formats`` lists,
    and ``--formats`` lists every subcommand."""
    def out(name):
        return str(tmp_path / name)

    c, w, g, s, m = out("c.json"), out("w.json"), out("g.json"), out("s.json"), out("m.json")
    commands = [
        ("generate", "circle", "--params", "4", "-o", c),
        ("generate", "wedge", "-o", w),
        ("generate", "grid_square", "--params", "2", "-o", g),
        ("generate", "sphere_boundary", "--params", "4", "-o", s),
        ("match", c, "-o", m),
        ("match", w, "-o", out("certificate.json")),
        ("enumerate", c, "-o", out("enumeration.json")),
        ("homology", c, "-o", out("betti.json")),
        ("subdivide", c, "-o", out("subdivided.json"), "--map-out", out("map.json"),
         "--propagate", m, "--matching-out", out("propagated.json")),
        ("flow", g, "--field", "1,2", "-o", out("flow.json")),
        ("orbits", c, "--matching", m, "-o", out("orbits.json")),
        ("pipeline", "sphere", s, "-o", out("pipeline.json")),
        ("dualloop", "find", c, "--complement-empty", "-o", out("loop.json")),
    ]
    for argv in commands:
        assert run(*argv) in (0, 2), argv
    written = {io.read_json(str(path))["format"] for path in tmp_path.iterdir()}
    assert {io.ENUMERATION_FORMAT, io.ORBIT_FORMAT} <= written
    capsys.readouterr()
    assert run("--formats") == 0
    listed = json.loads(capsys.readouterr().out)
    assert written <= set(listed["formats"]), written - set(listed["formats"])
    assert set(listed["subcommands"]) == {argv[0] for argv in commands} | {"chi", "validate"}


def test_emitted_files_reparse(tmp_path):
    # round-trip: every emitted artifact re-parses to an equal value
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    run("generate", "grid_square", "--params", "2", "-o", str(c))
    X = io.load_complex(str(c))
    io.save_complex(X, str(c))
    assert io.load_complex(str(c)).cells() == X.cells()
    run("flow", str(c), "--field", "1,-3", "-o", str(m))
    first = io.load_matching(str(m))
    io.save_matching(first, str(m))
    assert io.load_matching(str(m)) == first


def test_match_long_shuffled_path(tmp_path):
    pair = shuffled_path_rel_end(5000, seed=3)
    c, rel, m = tmp_path / "p.json", tmp_path / "rel.json", tmp_path / "m.json"
    io.save_complex(pair.complex, str(c))
    io.save_subcomplex(sorted(pair.sub), str(rel))
    assert run("match", str(c), "--rel", str(rel), "-o", str(m)) == 0
    assert len(io.read_json(str(m))["pairs"]) == 5000
