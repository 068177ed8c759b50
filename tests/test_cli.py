import argparse
import hashlib
import json
import math

import pytest

from intricacy import (ConstructionSpec, SystemLaw, diagonal_law, entropy,
                       point_mass, product_law, sample_sparse_system,
                       uniform_law)
from intricacy.cli import build_parser, main
from intricacy.experiments import CENSUS_CSV_HEADER, SWEEP_CSV_HEADER


@pytest.fixture()
def diagonal_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(diagonal_law(2, 2).to_json())
    return str(path)


@pytest.fixture()
def over_cap_file(tmp_path):
    """A point mass at N = 23, one coordinate above SUBSET_CAP."""
    path = tmp_path / "big.json"
    path.write_text(point_mass(2, 23, [0] * 23).to_json())
    return str(path)


@pytest.fixture()
def bad_mass_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "N": 1, "dense": [0.5, 0.4]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- entropy ---------------------------------------------------------------

def test_entropy_output(capsys, diagonal_file):
    code, out, _ = run(capsys, "entropy", diagonal_file)
    assert code == 0
    assert out.strip() == f"entropy_nats={math.log(2)!r}, x=0.5"


def test_entropy_bad_mass_exits_2(capsys, bad_mass_file):
    code, _, err = run(capsys, "entropy", bad_mass_file)
    assert code == 2
    assert "mass" in err


def test_entropy_nan_mass_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"d": 2, "N": 1, "dense": [NaN, 1.0]}')
    code, out, err = run(capsys, "entropy", str(path))
    assert code == 2
    assert out == ""
    assert "mass" in err


def test_threads_flag_is_gone(diagonal_file):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", diagonal_file, "--threads", "2"])
    assert exc.value.code == 2


def exit_code(capsys, argv):
    """Exit code of ``main(argv)`` whether it returns or exits, and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


HUGE_DENSE_N = {"d": 2, "N": 20000, "dense": [1.0]}
CENSUS = ["census", "--d", "2", "--N", "6", "--M", "3", "--y", "0.5",
          "--epsilon", "0.1"]
# every seed option, just outside 0..2^64 - 1
SEED_OUT_OF_RANGE = [
    ("construct-negative-seed",
     ["construct", "--d", "2", "--N", "4", "--M", "2", "--seed", "-1"]),
    ("construct-seed-2^64",
     ["construct", "--d", "2", "--N", "4", "--M", "2", "--seed", str(2**64)]),
    ("maximize-negative-seed",
     ["maximize", "--d", "2", "--N", "2", "--seed", "-1"]),
    ("maximize-seed-2^64",
     ["maximize", "--d", "2", "--N", "2", "--seed", str(2**64)]),
    ("census-negative-seed", [*CENSUS, "--seed", "-1", "--census-seed", "2"]),
    ("census-negative-census-seed",
     [*CENSUS, "--seed", "1", "--census-seed", "-1"]),
    ("census-census-seed-2^64",
     [*CENSUS, "--seed", "1", "--census-seed", str(2**64)]),
    ("sweep-negative-seed",
     ["sweep", "--d", "2", "--x", "0.5", "--N", "6", "--seeds", "-1"]),
    ("sweep-seed-range-past-2^64",
     ["sweep", "--d", "2", "--x", "0.5", "--N", "6",
      "--seeds", f"{2**64 - 1}..{2**64}"]),
]
# alphabet sizes outside 2..256, refused before the search does any work
MAXIMIZE_BAD_D = ["-2", "0", "1", "257"]


@pytest.mark.parametrize("law,argv", [
    pytest.param({"N": 1, "dense": [0.5, 0.5]}, ["entropy"],
                 id="law-without-d"),
    pytest.param([0.5, 0.5], ["entropy"], id="top-level-array"),
    pytest.param({"d": 2, "N": 1, "support": [{"p": 1.0}]}, ["entropy"],
                 id="support-entry-without-config"),
    pytest.param({"d": 2, "N": 1, "dense": [0.5, 0.5]},
                 ["profile", "--sampled"], id="sampled-profile-without-seed"),
    pytest.param(None, ["construct", "--d", "2", "--N", "6", "--seed", "1"],
                 id="construct-without-m-or-x"),
    pytest.param(None, ["census", "--d", "2", "--N", "6", "--M", "3",
                        "--x", "0.5", "--seed", "1", "--census-seed", "2",
                        "--y", "0.5", "--epsilon", "0.1"],
                 id="census-with-m-and-x"),
    pytest.param({"d": 3, "N": 1, "support": [{"config": [-255], "p": 0.5},
                                              {"config": [0], "p": 0.5}]},
                 ["entropy"], id="negative-symbol"),
    pytest.param({"d": 3, "N": 1, "support": [{"config": [257], "p": 0.5},
                                              {"config": [0], "p": 0.5}]},
                 ["entropy"], id="symbol-above-255"),
    pytest.param({"d": 3, "N": 1, "support": [{"config": [1.7], "p": 0.5},
                                              {"config": [0], "p": 0.5}]},
                 ["entropy"], id="fractional-symbol"),
    pytest.param({"d": 300, "N": 1, "support": [{"config": [299], "p": 1.0}]},
                 ["entropy"], id="d-above-256"),
    pytest.param(None, ["construct", "--d", "300", "--N", "2", "--M", "1",
                        "--seed", "1"], id="construct-d-above-256"),
    pytest.param({"d": 2.9, "N": 1, "support": [{"config": [0], "p": 0.5},
                                                {"config": [1], "p": 0.5}]},
                 ["entropy"], id="fractional-d"),
    pytest.param({"d": 2, "N": 1.5, "dense": [0.5, 0.5]}, ["entropy"],
                 id="fractional-N"),
    pytest.param({"d": "2", "N": 1, "dense": [0.5, 0.5]}, ["entropy"],
                 id="string-d"),
    pytest.param({"d": 2, "N": True, "dense": [0.5, 0.5]}, ["entropy"],
                 id="boolean-N"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--restarts", "0"], id="maximize-zero-restarts"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--iterations", "-1"], id="maximize-negative-iterations"),
    pytest.param(None, ["sweep", "--d", "2", "--x", "0.5", "--N", "6",
                        "--seeds", "0..-1"], id="sweep-empty-seed-range"),
    pytest.param(HUGE_DENSE_N, ["entropy"], id="huge-dense-N"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--x", "2"], id="maximize-target-above-1"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--x", "-0.5"], id="maximize-negative-target"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--x", "nan"], id="maximize-nan-target"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--x", "0.5", "--penalty", "-5"],
                 id="maximize-negative-penalty"),
    pytest.param(None, ["maximize", "--d", "2", "--N", "2", "--seed", "0",
                        "--x", "0.5", "--penalty", "inf"],
                 id="maximize-infinite-penalty"),
    pytest.param({"d": 2, "N": 2, "support": [{"config": [True, False],
                                               "p": 1.0}]},
                 ["entropy"], id="boolean-symbols"),
    pytest.param({"d": 2, "N": 2, "support": [{"config": [0, True],
                                               "p": 1.0}]},
                 ["entropy"], id="mixed-boolean-symbol"),
    pytest.param({"d": 2, "N": 1, "support": [{"config": [0], "p": "0.5"},
                                              {"config": [1], "p": "0.5"}]},
                 ["entropy"], id="string-mass"),
    pytest.param({"d": 2, "N": 1, "support": [{"config": [0], "p": True}]},
                 ["entropy"], id="boolean-mass"),
    pytest.param({"d": 2, "N": 1, "dense": ["0.5", "0.5"]}, ["entropy"],
                 id="string-dense-cell"),
    pytest.param({"d": 2, "N": 1, "support": [{"config": [0], "p": [0.5]},
                                              {"config": [1], "p": [0.5]}]},
                 ["entropy"], id="nested-mass"),
    pytest.param({"d": 2, "N": 2, "support": [{"config": [[0], [1]], "p": 0.5},
                                              {"config": [[1], [0]], "p": 0.5}]},
                 ["entropy"], id="nested-config"),
    # a maximize output whose "law" is not a law object
    *[pytest.param({"family": "est", "d": 2, "N": 1, "law": law},
                   [mode], id=f"maximize-output-{name}-law-{mode}")
      for name, law in [("list", [0.5, 0.5]), ("string", "law"),
                        ("number", 3), ("null", None),
                        ("empty", {}), ("bad-mass", {"d": 2, "N": 1,
                                                     "dense": [0.5, 0.4]})]
      for mode in ("entropy", "intricacy")],
    *[pytest.param(None, argv, id=name) for name, argv in SEED_OUT_OF_RANGE],
    *[pytest.param(None, ["maximize", "--d", d, "--N", "2", "--seed", "0"],
                   id=f"maximize-d-{d}") for d in MAXIMIZE_BAD_D],
    pytest.param({"d": 2, "N": 1, "dense": [0.5, 0.5]},
                 ["profile", "--sampled", "--seed", "-1"],
                 id="profile-negative-seed"),
])
def test_malformed_input_exits_2(capsys, tmp_path, law, argv):
    if law is not None:
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        argv = [argv[0], str(path), *argv[1:]]
    code, err = exit_code(capsys, argv)
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err
    if law is HUGE_DENSE_N:
        # rejected on its size before the 6000-digit d^N is formed
        assert "dense table must have d^N entries" in err
    if argv[0] == "maximize" and argv[-2] in ("--x", "--penalty"):
        # the message names the rejected value
        assert argv[-1] in err
    if argv[:2] == ["maximize", "--d"] and argv[2] in MAXIMIZE_BAD_D:
        assert "alphabet size" in err


@pytest.mark.parametrize("argv", [
    ["entropy", "LAW", "--out", "x.csv"],
    ["entropy", "LAW", "--format", "json"],
    ["entropy", "LAW", "--cap-subsets", "4"],
    ["entropy", "LAW", "--cap-support", "4"],
    ["profile", "LAW", "--cap-support", "4"],
    ["intricacy", "LAW", "--sampled"],
    ["coeffs", "--family", "est", "--N", "2", "--cap-subsets", "4"],
    # the caps are constants: SUBSET_CAP, SUPPORT_CAP
    ["profile", "LAW", "--cap-subsets", "4"],
    ["intricacy", "LAW", "--cap-subsets", "4"],
    ["sweep", "--d", "2", "--x", "0.5", "--N", "6", "--seeds", "0",
     "--cap-subsets", "4"],
    ["construct", "--d", "2", "--N", "4", "--M", "2", "--seed", "1",
     "--cap-support", "4"],
    [*CENSUS, "--seed", "1", "--census-seed", "2", "--cap-support", "4"],
    ["sweep", "--d", "2", "--x", "0.5", "--N", "6", "--seeds", "0",
     "--format", "json"],
    ["maximize", "--d", "2", "--N", "2", "--seed", "0", "--format", "json"],
], ids=lambda argv: argv[0] + [a for a in argv if a.startswith("--")][-1])
def test_unread_flags_are_gone(capsys, diagonal_file, argv):
    argv = [diagonal_file if a == "LAW" else a for a in argv]
    code, err = exit_code(capsys, argv)
    assert code == 2
    assert "unrecognized arguments" in err


# one valid invocation per subcommand and mode, each optional flag set to a
# value other than its default
EVERY_MODE = [
    ["entropy", "LAW"],
    ["profile", "LAW", "--format", "json", "--out", "OUT"],
    ["profile", "LAW", "--sampled", "--seed", "1", "--samples", "5",
     "--format", "json", "--out", "OUT"],
    ["intricacy", "LAW", "--families", "est,uniform", "--format", "json",
     "--out", "OUT"],
    ["coeffs", "--family", "uniform", "--N", "3", "--format", "json",
     "--out", "OUT"],
    ["construct", "--d", "3", "--N", "4", "--M", "2", "--seed", "1",
     "--out", "OUT"],
    ["construct", "--d", "2", "--N", "6", "--x", "0.5", "--seed", "1",
     "--out", "OUT"],
    ["sweep", "--families", "est,uniform", "--d", "2", "--x", "0.5",
     "--N", "4,5", "--seeds", "0..1", "--out", "OUT"],
    ["census", "--family", "uniform", "--d", "2", "--N", "6", "--M", "3",
     "--seed", "1", "--census-seed", "2", "--y", "0.5", "--epsilon", "0.1",
     "--samples", "20", "--out", "OUT"],
    ["census", "--d", "2", "--N", "6", "--x", "0.5", "--seed", "1",
     "--census-seed", "2", "--y", "0.5", "--epsilon", "0.1", "--out", "OUT"],
    ["maximize", "--family", "uniform", "--d", "2", "--N", "2",
     "--restarts", "2", "--iterations", "3", "--seed", "1", "--out", "OUT"],
    ["maximize", "--d", "2", "--N", "2", "--restarts", "1", "--iterations",
     "3", "--seed", "1", "--x", "0.3", "--penalty", "5", "--out", "OUT"],]


@pytest.mark.parametrize("argv", EVERY_MODE, ids=lambda argv: "-".join(
    [argv[0], *(a[2:] for a in argv if a.startswith("--") and a != "--out")]))
def test_every_flag_given_is_read(capsys, tmp_path, diagonal_file, argv):
    parser = build_parser()
    paths = {"LAW": diagonal_file, "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in argv]
    args = parser.parse_args(argv)
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    sub = commands.choices[argv[0]]
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    recorded = Recording(**vars(args))
    assert recorded.func(recorded) == 0
    # "command" picks the subcommand, before any of its flags is read
    given = {dest for dest, value in vars(args).items()
             if dest != "command" and value != sub.get_default(dest)}
    assert given - read == set()


@pytest.mark.parametrize("argv,flag", [
    (["profile", "LAW", "--seed", "3"], "--seed"),
    (["profile", "LAW", "--samples", "50"], "--samples"),
    (["maximize", "--d", "2", "--N", "2", "--seed", "0", "--penalty", "5"],
     "--penalty"),
], ids=["profile-seed", "profile-samples", "maximize-penalty"])
def test_flags_without_the_flag_they_qualify_exit_2(capsys, diagonal_file,
                                                      argv, flag):
    # accepted and ignored, each would change nothing the command writes
    argv = [diagonal_file if a == "LAW" else a for a in argv]
    code, err = exit_code(capsys, argv)
    assert code == 2
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert flag in line
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,default", [
    (["profile", "LAW", "--sampled", "--seed", "3"], ["--samples", "200"]),
    (["maximize", "--d", "2", "--N", "2", "--seed", "0", "--restarts", "1",
      "--iterations", "5", "--x", "0.3"], ["--penalty", "20"]),
], ids=["profile-samples", "maximize-penalty"])
def test_qualified_flags_default_where_they_apply(capsys, diagonal_file,
                                                  argv, default):
    argv = [diagonal_file if a == "LAW" else a for a in argv]
    runs = [run(capsys, *argv), run(capsys, *argv, *default)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]


def test_entropy_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "entropy", "/nonexistent/law.json")
    assert code == 2
    assert "error" in err


def test_law_path_that_is_a_directory_exits_2(capsys, tmp_path):
    code, err = exit_code(capsys, ["entropy", str(tmp_path)])
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


def test_entropy_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "entropy", str(path))
    assert code == 2


# --- profile ----------------------------------------------------------------

def test_profile_csv(capsys, diagonal_file):
    code, out, _ = run(capsys, "profile", diagonal_file)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,h,stderr"
    assert lines[1] == "0,0.0,"
    assert lines[2] == "1,0.5,"
    assert lines[3] == "2,0.5,"


def test_profile_json_to_file(capsys, tmp_path, diagonal_file):
    dest = tmp_path / "prof.json"
    code, _, _ = run(capsys, "profile", diagonal_file, "--format", "json",
                     "--out", str(dest))
    assert code == 0
    obj = json.loads(dest.read_text())
    assert obj == {"N": 2, "values": [0.0, 0.5, 0.5]}


@pytest.mark.parametrize("law", [
    {"d": 2, "N": 0, "dense": [1.0]},
    {"d": 2, "N": 0, "support": [{"config": [], "p": 1.0}]},
], ids=["dense", "sparse"])
def test_profile_of_an_empty_system(capsys, tmp_path, recwarn, law):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(law))
    assert run(capsys, "profile", str(path)) == (0, "k,h,stderr\n0,0.0,\n", "")
    assert run(capsys, "profile", str(path), "--sampled", "--seed", "1") == (
        0, "k,h,stderr\n0,0.0,0.0\n", "")
    assert not recwarn


def test_profile_sampled_requires_seed(capsys, diagonal_file):
    with pytest.raises(SystemExit):
        main(["profile", diagonal_file, "--sampled"])


def test_profile_cap_exit_3(capsys, over_cap_file):
    code, _, err = run(capsys, "profile", over_cap_file)
    assert code == 3
    assert "error" in err and "SUBSET_CAP = 22" in err
    assert "profile --sampled" in err


# --- intricacy ----------------------------------------------------------------

def test_intricacy_csv(capsys, diagonal_file):
    code, out, _ = run(capsys, "intricacy", diagonal_file,
                       "--families", "est,uniform")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,d,N,x,icn_x,deficit,normalized_intricacy"
    est = lines[1].split(",")
    assert est[0] == "est"
    assert float(est[6]) == pytest.approx(1 / 6, abs=1e-12)
    uni = lines[2].split(",")
    assert float(uni[6]) == pytest.approx(0.25, abs=1e-12)


def test_intricacy_product_law_zero(capsys, tmp_path):
    path = tmp_path / "prod.json"
    path.write_text(product_law([[0.3, 0.7]] * 3, 2).to_json())
    code, out, _ = run(capsys, "intricacy", str(path), "--format", "json")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["normalized_intricacy"] == pytest.approx(0.0, abs=1e-12)


def test_intricacy_over_cap_without_sampled_exits_3(capsys, over_cap_file):
    code, _, err = run(capsys, "intricacy", over_cap_file)
    assert code == 3
    assert "error" in err and "SUBSET_CAP = 22" in err


def test_intricacy_unknown_family_exits_2(capsys, diagonal_file):
    code, _, _ = run(capsys, "intricacy", diagonal_file,
                     "--families", "cauchy")
    assert code == 2


# --- coeffs -----------------------------------------------------------------

def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "est", "--N", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,c_k,dn_p_k"
    ks = [line.split(",") for line in lines[1:]]
    assert [float(row[1]) for row in ks] == pytest.approx(
        [1 / 3, 1 / 6, 1 / 3], abs=1e-15)
    assert [float(row[2]) for row in ks] == pytest.approx(
        [1 / 3, 1 / 3, 1 / 3], abs=1e-15)


def test_coeffs_json_valid_flag(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "p-sym:0.3", "--N", "5",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert len(obj["c"]) == 6


# --- construct ----------------------------------------------------------------

def test_construct_deterministic_files(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code, _, err = run(capsys, "construct", "--d", "2", "--N", "10",
                           "--M", "5", "--seed", "7", "--out", str(dest))
        assert code == 0
        assert "x_N=" in err
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["d"] == 2 and obj["N"] == 10
    assert len(obj["support"]) <= 32


@pytest.mark.parametrize("d,N,M", [(2, 10, 5), (3, 6, 3)])
def test_construct_file_bytes_match_explicit_casts(capsys, tmp_path, d, N, M):
    dest = tmp_path / "law.json"
    code, _, _ = run(capsys, "construct", "--d", str(d), "--N", str(N),
                     "--M", str(M), "--seed", "11", "--out", str(dest))
    assert code == 0
    law = sample_sparse_system(ConstructionSpec(d, N, M, 11))
    want = json.dumps({
        "d": d, "N": N,
        "support": [{"config": [int(s) for s in cfg], "p": float(p)}
                    for cfg, p in zip(law.configs, law.probs)],
    }) + "\n"
    assert dest.read_text() == want


# sha256 of `intricacy construct --d d --N N --M M --seed seed` output files,
# pinned so that the construction stream cannot drift between versions
CONSTRUCT_SHA256 = {
    (2, 10, 5, 7): "14a4ba8adfba1f1917cf4f6c304cd4a32d231fc87cb765c16bed83b80547b3c3",
    (3, 6, 3, 11): "3113d8fbf17008a84c523d51c1ba8d6c1b9c42388f9194748a3564357e11c042",
    (5, 5, 3, 2): "129322582fe8ece742f9cf5a3b5b92a0dcc534952c848ef7fb0ed194f027d259",
    (2, 16, 8, 1): "951d43172e221396959072ac04deb190eb743dfdb2119a3978a0f3aefdcf5035",
    (3, 12, 6, 4): "a673b00d7142624a61813e98575e9a7f260cf6eda0bebaf666f8084585f48d7c",
    # the benchmark's large_n shape, whose 65536 x 22 draws span many blocks
    (2, 22, 16, 77): "5717a695c362d3a2657d0cbcf858ab34e6801c3e34c4cbc823cfa80ee937fae3",
}


@pytest.mark.parametrize("spec", CONSTRUCT_SHA256,
                         ids=lambda spec: "-".join(map(str, spec)))
def test_construct_file_bytes_are_pinned(capsys, tmp_path, spec):
    dest = tmp_path / "law.json"
    argv = [arg for flag, value in zip(("--d", "--N", "--M", "--seed"), spec)
            for arg in (flag, str(value))]
    code, _, _ = run(capsys, "construct", *argv, "--out", str(dest))
    assert code == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == CONSTRUCT_SHA256[spec]
    text = dest.read_text()
    assert SystemLaw.from_json(text).to_json() + "\n" == text


@pytest.mark.parametrize("spec", CONSTRUCT_SHA256,
                         ids=lambda spec: "-".join(map(str, spec)))
def test_construct_files_are_read_without_json(capsys, tmp_path, monkeypatch,
                                               spec):
    # a construct file must take the block reader, in the API and the CLI:
    # a change to to_json's bytes would otherwise silently slow every read
    law = sample_sparse_system(ConstructionSpec(*spec))
    dest = tmp_path / "law.json"
    dest.write_text(law.to_json() + "\n")

    def no_json(*args, **kwargs):
        raise AssertionError("json.loads called on a construct file")

    monkeypatch.setattr("intricacy.laws.json.loads", no_json)
    back = SystemLaw.from_json(dest.read_text())
    assert back.configs.tobytes() == law.configs.tobytes()
    assert back.probs.tobytes() == law.probs.tobytes()
    code, out, _ = run(capsys, "entropy", str(dest))
    assert code == 0
    assert out.startswith(f"entropy_nats={entropy(law)!r}, ")


def test_construct_x_flag(capsys, tmp_path):
    dest = tmp_path / "c.json"
    code, _, err = run(capsys, "construct", "--d", "2", "--N", "9",
                       "--x", "0.5", "--seed", "1", "--out", str(dest))
    assert code == 0
    assert "M=4" in err


def test_largest_seed_is_accepted(capsys, tmp_path):
    dest = tmp_path / "c.json"
    code, _, err = run(capsys, "construct", "--d", "2", "--N", "4", "--M", "2",
                       "--seed", str(2**64 - 1), "--out", str(dest))
    assert code == 0
    assert f"seed={2**64 - 1} " in err


def test_construct_needs_exactly_one_of_m_x(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["construct", "--d", "2", "--N", "6", "--seed", "1"])
    with pytest.raises(SystemExit):
        main(["construct", "--d", "2", "--N", "6", "--M", "3", "--x", "0.5",
              "--seed", "1"])


def test_construct_support_cap_exit_3(capsys, tmp_path):
    # d^M = 2^21 draws, one power of 2 above SUPPORT_CAP; 2^15000 has more
    # digits than int-to-str conversion allows, so it is never printed
    census = ["census", "--census-seed", "1", "--y", "0.5", "--epsilon", "0.1"]
    for argv, N, M in ((["construct"], "30", "21"), (census, "30", "21"),
                       (["construct"], "20000", "15000")):
        code, _, err = run(capsys, *argv, "--d", "2", "--N", N, "--M", M,
                           "--seed", "0", "--out", str(tmp_path / "x"))
        assert code == 3
        assert f"d^M = 2^{M} draws is above SUPPORT_CAP = 1048576" in err
        assert not (tmp_path / "x").exists()


# --- sweep ----------------------------------------------------------------------

def test_sweep_csv_schema_and_reproducibility(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dest in (a, b):
        code, _, err = run(capsys, "sweep", "--families", "est,uniform",
                           "--d", "2", "--x", "0.5", "--N", "6,8",
                           "--seeds", "0..4", "--out", str(dest))
        assert code == 0
        assert "seed-mean I_N" in err
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 5
    row = lines[1].split(",")
    assert len(row) == 10
    assert row[0] == "est" and row[1] == "2"


def test_sweep_over_cap_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--d", "2", "--x", "0.5", "--N", "23",
                       "--seeds", "0", "--out", str(tmp_path / "s.csv"))
    assert code == 3
    assert "SUBSET_CAP = 22" in err


def test_sweep_range_syntax(capsys, tmp_path):
    dest = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--d", "2", "--x", "0.5", "--N", "6..7",
                     "--seeds", "3", "--out", str(dest))
    assert code == 0
    lines = dest.read_text().strip().split("\n")
    assert len(lines) == 3
    assert {line.split(",")[2] for line in lines[1:]} == {"6", "7"}


# --- census ------------------------------------------------------------------------

def test_census_csv(capsys, tmp_path):
    dest = tmp_path / "c.csv"
    code, _, _ = run(capsys, "census", "--d", "2", "--N", "12", "--M", "6",
                     "--seed", "5", "--census-seed", "9", "--y", "0.25",
                     "--epsilon", "0.1", "--samples", "200",
                     "--out", str(dest))
    assert code == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == CENSUS_CSV_HEADER
    row = lines[1].split(",")
    assert len(row) == 13
    assert row[:5] == ["est", "2", "12", "6", "5"]
    assert row[6] == "3"
    assert 0.0 <= float(row[9]) <= 1.0


def test_census_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dest in (a, b):
        code, _, _ = run(capsys, "census", "--d", "2", "--N", "10",
                         "--x", "0.5", "--seed", "3", "--census-seed", "4",
                         "--y", "0.75", "--epsilon", "0.2", "--samples", "100",
                         "--out", str(dest))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# --- maximize -----------------------------------------------------------------------

def test_maximize_json(capsys, tmp_path):
    dest = tmp_path / "m.json"
    code, _, err = run(capsys, "maximize", "--d", "2", "--N", "2",
                       "--seed", "1", "--restarts", "5",
                       "--iterations", "100", "--out", str(dest))
    assert code == 0
    assert "certificate=" in err
    obj = json.loads(dest.read_text())
    assert obj["certificate"] >= -1e-9
    assert obj["intricacy_nats"] >= 0.0
    assert obj["law"]["d"] == 2 and obj["law"]["N"] == 2
    # plain floats, not numpy 2's np.float64(...) repr
    assert err == (f"best I={obj['intricacy_nats']!r} "
                   f"certificate={obj['certificate']!r}\n")


def test_maximize_output_reads_as_its_law(capsys, tmp_path):
    result = tmp_path / "max.json"
    code, _, _ = run(capsys, "maximize", "--d", "2", "--N", "4",
                     "--seed", "3", "--restarts", "2", "--iterations", "30",
                     "--out", str(result))
    assert code == 0
    law = tmp_path / "law.json"
    law.write_text(json.dumps(json.loads(result.read_text())["law"]))
    for mode, *flags in (["entropy"], ["profile"],
                         ["intricacy", "--families", "est,uniform"]):
        direct = run(capsys, mode, str(result), *flags)
        assert direct[0] == 0
        assert direct == run(capsys, mode, str(law), *flags)


def test_maximize_cap_exit_3(capsys):
    code, _, err = run(capsys, "maximize", "--d", "2", "--N", "13",
                       "--seed", "0")
    assert code == 3
    assert "SEARCH_CAP_CELLS" in err and "3^13" in err


@pytest.mark.parametrize("argv,cap", [
    (["coeffs", "--family", "est", "--N", "1030"], "N=1030 leaves float range"),
    (["sweep", "--d", "2", "--x", "0.5", "--N", "1100", "--seeds", "0"],
     "SUBSET_CAP = 22"),
    (["maximize", "--d", "2", "--N", "1100", "--seed", "0"],
     "SEARCH_CAP_CELLS"),
], ids=["coeffs", "sweep", "maximize"])
def test_large_n_exits_3_before_the_coefficient_table(capsys, argv, cap):
    # each cap is checked before the table, whose binomials leave float range
    code, err = exit_code(capsys, argv)
    assert code == 3
    assert err.startswith("error: ") and cap in err
    assert "Traceback" not in err


@pytest.mark.parametrize("d,N", [("2", "12"), ("4", "3")])
def test_maximize_runs_within_the_cell_cap(capsys, tmp_path, d, N):
    code, _, _ = run(capsys, "maximize", "--d", d, "--N", N, "--seed", "0",
                     "--restarts", "1", "--iterations", "2",
                     "--out", str(tmp_path / "m.json"))
    assert code == 0
