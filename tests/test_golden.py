"""Golden bytes: SHA-256 digests of what the program writes, pinned.

The digests cover learner reports (``io.json_dumps`` of
``LearnReport.to_json_dict()``), ``generate``'s CSV and sidecar, and an
experiment CSV without its ``wall_time_s`` column. A change that moves
any of these bytes on purpose re-pins the digest in the same change and
says which fields moved; every other change must leave them as they are.
The Gram product and the vector norms go through BLAS, so a digest may
differ on another CPU or BLAS build; the pins were taken on x86-64 with
OpenBLAS. Each failure message prints the digest it got.
"""

import csv
import hashlib
import io as text_io

import pytest
from conftest import cfg, stdout_with_blas_threads
from test_learner import STAGE_EDITS, staged

from halflearn import cli, testable_learn
from halflearn.io import json_dumps


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(report) -> bytes:
    return json_dumps(report.to_json_dict()).encode()


# (d, marginal, noise, opt, seed) of five n=600k calls, two learned and
# three rejected. v_star = random_unit_vector(d, default_rng(seed)) and
# the config's seed is the sample's.
FIVE_REPORTS = {
    (8, "gaussian", "random-flip", 0.05, 0):
        "55afd99649912e17ca9b90ac4759ca8f231fc40e1132f0177e53853e1699d53b",
    (12, "gaussian", "boundary-flip", 0.03, 1):
        "20d1d439d4adecff00a017154da362bc65efb975f8821bca99350c9bf426ed12",
    (5, "uniform-cube", "clean", 0.0, 2):
        "27579ac96251d6bc238dddf0b87634928652de2ee58d4addc80b30832bf63459",
    (8, "student-t", "wedge-flip", 0.05, 3):
        "1aa0a05964831c7e571ae36a5d3e9f8d8ff5f60d663e2f9505254932919d8067",
    (4, "gaussian", "clean", 0.0, 4):
        "a4d22a4638fbc0eac9dffdf45a31ccd1c4c3995fc7102242ebb9415a2786f9f3",
}

# One json_dumps line per case of FIVE_REPORTS, in order.
_FIVE_SCRIPT = f"""
import sys, numpy as np
from halflearn import RunConfig, random_unit_vector, testable_learn
from halflearn.datagen import MarginalFamily, generate, make_noise
from halflearn.io import json_dumps
for d, marginal, noise, opt, seed in {list(FIVE_REPORTS)!r}:
    v = random_unit_vector(d, np.random.default_rng(seed))
    s = generate(d, 600_000, MarginalFamily(marginal), v,
                 make_noise(noise, opt), seed)
    report = testable_learn(s, 0.05, 0.05,
                            RunConfig(epsilon=0.05, tau=0.05, seed=seed))
    sys.stdout.write(json_dumps(report.to_json_dict()))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_five_reports(threads):
    lines = stdout_with_blas_threads(_FIVE_SCRIPT, threads).splitlines(
        keepends=True)
    got = {case: sha256(line) for case, line in zip(FIVE_REPORTS, lines)}
    assert got == FIVE_REPORTS, f"got {got}"


# Reports on test_learner's staged rows, by the name of the edit.
STAGED_REPORTS = {
    "unedited":
        "aeeaaf0a88e153578a4ed49afbbdccb26156036a84d04d8b9db756e264f18677",
    "_uniform_round_margin":
        "046942af261eb98d35a2b7afb01b498b18a348b55ecbf944c6891c194802e126",
    "_far_round_margin":
        "046942af261eb98d35a2b7afb01b498b18a348b55ecbf944c6891c194802e126",
    "_sign_round_orthogonals":
        "8d4bea5b3519a706b9a7475da33977042fbf4698d4799fec32522e4e80e972b3",
    "_shift_wedge_margin":
        "79c2bc0b9672440585469ff69b76d53529568bc26f2485d4487fd36400ee6431",
    "_widen_wedge_orthogonals":
        "d75c28d53279caa4ba4eb532c9e102f70fdf6dd16f5fb1547f421007b10b5166",
    "_huge_wedge_coordinate":
        "d75c28d53279caa4ba4eb532c9e102f70fdf6dd16f5fb1547f421007b10b5166",
}


def _edit_name(edit):
    return edit.__name__ if edit else "unedited"


@pytest.mark.parametrize("edit", [None] + [edit for edit, *_ in STAGE_EDITS],
                         ids=_edit_name)
def test_staged_report(edit):
    name = _edit_name(edit)
    got = sha256(report_bytes(testable_learn(staged(edit), 0.05, 0.05,
                                             cfg())))
    assert got == STAGED_REPORTS[name], f"{name}: got {got}"


# generate --d 5 --n 3000 --seed 0, with --opt 0.1 for every noise but
# clean: digests of the CSV and of the sidecar JSON.
GENERATED = {
    ("gaussian", "clean"):
        ("e757242ed099e25a4b53b29f53a60235c348351c3bb21cf110f9dde5f0ff0882",
         "7cdd501e9255472fde945ace85a61bf8e67be04482cc2183cc10ff757afde9ad"),
    ("gaussian", "random-flip"):
        ("c162c1692e44fe7c6c52d457d0098807e350ada89e65934a97bf99012281573f",
         "f96cfdfc5f41befc9727390e6ba7e8e8fefdfb585b09e53265d11a05b8efac6b"),
    ("gaussian", "boundary-flip"):
        ("449a9f4420c404d52a272963b9f7f122ba24796b2f29fe0b08507890fb46db95",
         "e74002c06e82d2c4f40691b08475516351e43a53963b6b553f5bf14deca6d22f"),
    ("gaussian", "wedge-flip"):
        ("d9f7d5edeae94d5b63c032d7067e7d49a9c03c53a893ac963dade34bbd51df05",
         "80257ab6ccf08e081fadc8a6d0a00bfe8301d5ef597be8b236c441d1f4c89fc1"),
    ("student-t", "clean"):
        ("b5d968f9f99c324ed2a3de5beeb32f76f5fdcf30d6a1ee863ad2d7d1bf01049d",
         "d0768afb4164e900c2933126a925167a39e4cfa7db09fd88b1860bab5463677f"),
    ("student-t", "random-flip"):
        ("f9325abdfac4352ad92c0a83087813f240bd7dd90d7968a8f7a73d130985f317",
         "f5c3bbe145b0da3d943cd19eac258d3900ed4785975aaf6fa346d3e29401626c"),
    ("student-t", "boundary-flip"):
        ("17b2b315a3e1744ab30dfab496ff37624589a3e5e62c6c42e22e9b549de6ba52",
         "f466ad86bdf16806c395f8bf4adfcd6a6e8e9779ef107850a2be69b7ff390d82"),
    ("student-t", "wedge-flip"):
        ("23482ba95c42c7d69db359491f54353d38df752b2ce27c67917e116968f41abb",
         "8660a2eb0db71af6b7b766479b448a8b821783a802506541216a80954536cde3"),
}


@pytest.mark.parametrize("marginal, noise", list(GENERATED),
                         ids=[f"{m}-{k}" for m, k in GENERATED])
def test_generated_files(tmp_path, marginal, noise):
    out = tmp_path / "sample"
    opt = "0" if noise == "clean" else "0.1"
    assert cli.main(["generate", "--d", "5", "--n", "3000", "--marginal",
                     marginal, "--noise", noise, "--opt", opt, "--seed", "0",
                     "--out", str(out)]) == cli.EXIT_OK
    got = (sha256(out.with_suffix(".csv").read_bytes()),
           sha256(out.with_suffix(".json").read_bytes()))
    assert got == GENERATED[marginal, noise], f"got {got}"


# Two tasks, one learned and one rejected.
EXPERIMENT_SPEC = ('{"grid": {"d": [3], "n": [340000], '
                   '"marginal": ["gaussian", "student-t"]}, "seeds": [0]}')
EXPERIMENT_CSV = (
    "3b766bec718f3c4eefbccafde764b708e9e9d14c7062ee9d0c5406979153b6e9")


def test_experiment_csv(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "agg.csv"
    spec.write_text(EXPERIMENT_SPEC)
    assert cli.main(["experiment", "--spec", str(spec), "--out",
                     str(out)]) == cli.EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    drop = rows[0].index("wall_time_s")
    kept = text_io.StringIO()
    csv.writer(kept, lineterminator="\n").writerows(
        row[:drop] + row[drop + 1:] for row in rows)
    got = sha256(kept.getvalue().encode())
    assert got == EXPERIMENT_CSV, f"got {got}"
