"""The three workloads: inputs from a seed, one timed step per item, and checks.

Every workload is a closed loop with one client: the next item starts when
the previous one has finished.  The inputs are a function of the seed and
the size alone.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-test."""

    verify_trials: int
    verify_seeds: int
    word_length: int
    word_pairs: int
    target_draws: int
    targets_per_mode: int
    search_length: int
    oracle_items: int
    trace_items: dict


SIZES = {
    "full": Size(
        verify_trials=5,
        verify_seeds=100,
        word_length=8,
        word_pairs=400,
        target_draws=192,
        targets_per_mode=28,
        search_length=6,
        oracle_items=8,
        trace_items={"verify_all": 160, "certify_words": 60, "preimage_lift": 12},
    ),
    "tiny": Size(
        verify_trials=1,
        verify_seeds=2,
        word_length=4,
        word_pairs=2,
        target_draws=16,
        targets_per_mode=3,
        search_length=2,
        oracle_items=2,
        trace_items={"verify_all": 16, "certify_words": 2, "preimage_lift": 4},
    ),
}


def colstab():
    """The colstab modules, imported by name so a re-import is picked up."""
    import colstab.cli
    import colstab.matrix
    import colstab.stab
    import colstab.tame

    return colstab


@dataclass
class Outcome:
    """Checked result of one item.

    ``units`` are the completed units (tallied checks, words or targets),
    ``failed`` those that failed, ``lifted`` the preimage verdict of a search
    target and ``matrices`` certified matrices the sympy oracle may recheck.
    """

    units: int
    failed: int = 0
    note: str = ""
    lifted: bool | None = None
    matrices: tuple = ()


class VerifyAll:
    """``colstab verify --suite all --mode both`` through ``colstab.cli.main``.

    An item is one invocation with a seed derived from the workload seed; its
    units are the checks it tallies.  The traced run splits each invocation
    into one call per suite and mode, which does identical work.
    """

    name = "verify_all"

    def build(self, cs, seed, size):
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.getrandbits(31) for _ in range(size.verify_seeds)]
        trials = str(size.verify_trials)
        # CLI cold start: the parser is built and the arguments parsed once.
        cs.cli.build_parser().parse_args(
            ["verify", "--suite", "all", "--mode", "both", "--trials", trials]
        )
        return [
            ["verify", "--suite", "all", "--mode", "both", "--trials", trials,
             "--seed", str(s)]
            for s in seeds
        ]

    def trace_items(self, cs, pool, count):
        """Per suite and mode invocations covering the first pool items."""
        suites = sorted(cs.cli.SUITES)
        items = []
        for argv in pool:
            for suite in suites:
                for mode in ("polynomial", "laurent"):
                    split = list(argv)
                    split[2] = suite
                    split[4] = mode
                    items.append(split)
                    if len(items) == count:
                        return items
        return items

    def label(self, argv):
        return " ".join(argv[1:])

    def run(self, cs, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cs.cli.main(argv)
        return code, out.getvalue()

    def check(self, cs, argv, result):
        code, text = result
        doc = json.loads(text)
        checks = [r for run in doc["runs"] for r in run["results"]]
        units = sum(r["passed"] + r["failed"] for r in checks)
        failed = sum(r["failed"] for r in checks)
        if failed or code != 0 or doc["ok"] is not True or units == 0:
            bad = [r["check"] for r in checks if r["failed"]]
            return Outcome(max(units, 1), max(failed, 1), f"verify not ok: {bad}")
        return Outcome(units)


class CertifyWords:
    """Certify seeded tame words of one length in both ring modes.

    An item is one polynomial and one Laurent word; its units are the two
    words.  Pairing keeps the item latency unimodal: polynomial words take
    tens of milliseconds and Laurent words several times more, so a median
    over single words would sit in the gap between the two.  Timed per word:
    ``eval_word``, the document round trip, ``rho``, the two residue routes
    compared, and ``in_H``.
    """

    name = "certify_words"

    def __init__(self):
        self.letter_images = {}

    def build(self, cs, seed, size):
        self.letter_images = {}
        return [
            tuple(
                (ring, cs.tame.sample_tame(
                    ring,
                    random.Random(f"{self.name}:{mode}:{seed}:{i}").getrandbits(32),
                    size.word_length,
                ))
                for mode, ring in _rings(cs)
            )
            for i in range(size.word_pairs)
        ]

    def trace_items(self, cs, pool, count):
        return pool[:count]

    def label(self, item):
        return " + ".join(f"{ring.mode.value} word of length {len(word)}" for ring, word in item)

    def run(self, cs, item):
        return [self._certify(cs, ring, word) for ring, word in item]

    @staticmethod
    def _certify(cs, ring, word):
        a = cs.tame.eval_word(ring, word)
        doc = cs.matrix.mat_to_document(a.mat)
        if cs.matrix.mat_from_document(doc) != a.mat:
            raise AssertionError("document round trip changed the matrix")
        image = cs.stab.rho(a)
        routes_agree = cs.stab.residues_closed_form(a) == cs.stab.residues(a)
        in_h = cs.stab.in_H(a)
        return a, image, routes_agree, in_h

    def check(self, cs, item, result):
        notes = [
            self._problem(cs, ring, word, *certified)
            for (ring, word), certified in zip(item, result)
        ]
        failed = [note for note in notes if note]
        if failed:
            return Outcome(len(item), len(failed), "; ".join(failed))
        return Outcome(len(item), matrices=tuple(a.mat for a, *_ in result))

    def _problem(self, cs, ring, word, a, image, routes_agree, in_h):
        """What is wrong with one certified word, or an empty string."""
        if not routes_agree:
            return "closed-form and relations residues differ"
        product = cs.matrix.identity(ring, 2)
        for letter in word.letters:
            m = self.letter_images.get((ring, letter))
            if m is None:
                m = cs.stab.rho(letter.evaluate(ring)).mat
                self.letter_images[(ring, letter)] = m
            product = product * m
        if image.mat != product:
            return "rho(word) differs from the product of letter images"
        if in_h and image.mat != cs.matrix.identity(ring, 2):
            return "a kernel member maps off the identity"
        return ""


class PreimageLift:
    """Lift scheme matrices back to stabilizers with a budgeted search.

    Targets are ``rho`` images of a fixed number of seeded tame words; those
    whose correcting coordinate mu is zero lift without the search and are
    left out.  The search outcome follows the shape of mu: when it is an
    integer multiple of c1 the target lifts, otherwise it stays obstructed.
    Over 1,200 draws (seeds 1, 2 and 11-14, both modes) 112 of 179 nonzero
    mu were multiples of c1, so the pool takes the two shapes in the ratio
    5:3 (``SHAPES``) for a fixed number of targets in each mode, repeating a
    shape's targets when its draws run short.  A run then sees the same mix
    and pool size at every seed, and the per-shape counts of its own draws
    are in the record (``census``).  The control ``t21(c1*c2)`` and, in
    polynomial mode, the Cohn matrix lead the pool.
    """

    name = "preimage_lift"

    # True where the next target has mu a multiple of c1.
    SHAPES = (True, True, False, True, True, False, True, False)

    def __init__(self):
        self.census = {}

    def build(self, cs, seed, size):
        budget = cs.stab.SearchBudget(word_length=size.search_length)
        pool = []
        streams = []
        self.census = {}
        for mode, ring in _rings(cs):
            control = cs.matrix.transvection(ring, 2, 2, 1, ring.c(1) * ring.c(2))
            pool.append(("control", cs.stab.CongruenceMatrix(control), budget))
            if mode == "polynomial":
                cohn = cs.stab.CongruenceMatrix(cs.tame.cohn_matrix(ring))
                pool.append(("cohn", cohn, budget))
            rng = random.Random(f"{self.name}:{mode}:{seed}")
            shapes = {"zero": [], True: [], False: []}
            for _ in range(size.target_draws):
                word = cs.tame.sample_tame(ring, rng.getrandbits(32), 3, coeff_bound=1)
                target = cs.stab.rho(cs.tame.eval_word(ring, word))
                mu = _mixed_coordinate(cs, target)
                shape = "zero" if mu.is_zero else _multiple_of_c1(cs, mu)
                shapes[shape].append(("word", target, budget))
            self.census[mode] = {
                "mu_zero": len(shapes["zero"]),
                "mu_c1_multiple": len(shapes[True]),
                "mu_other": len(shapes[False]),
            }
            drawn = {shape: itertools.cycle(shapes[shape]) for shape in (True, False)}
            stream = []
            for shape in itertools.islice(itertools.cycle(self.SHAPES), size.targets_per_mode):
                if not shapes[shape]:
                    break
                stream.append(next(drawn[shape]))
            streams.append(stream)
        for group in itertools.zip_longest(*streams):
            pool.extend(t for t in group if t is not None)
        return pool

    def trace_items(self, cs, pool, count):
        return pool[:count]

    def label(self, item):
        kind, target, budget = item
        return f"{kind} {target.ring.mode.value} budget {budget.word_length}"

    def run(self, cs, item):
        _, target, budget = item
        return cs.stab.preimage(target, budget)

    def check(self, cs, item, report):
        kind, target, _ = item
        ring = target.ring
        if kind == "control":
            ok = report.status == "OBSTRUCTED" and report.obstruction == ring.one
            if not ok:
                return Outcome(1, 1, "control was not obstructed by 1")
            return Outcome(1, lifted=False)
        if report.status == "SUCCESS":
            lifted = report.preimage
            if cs.stab.rho(lifted).mat != target.mat:
                return Outcome(1, 1, "rho(preimage) differs from the target")
            if not lifted.mat.det().is_unit():
                return Outcome(1, 1, "preimage determinant is not a unit")
            return Outcome(1, lifted=True)
        if kind == "cohn":
            return Outcome(1, 1, "the Cohn matrix did not lift")
        if report.stage != "transvection-preimage":
            return Outcome(1, 1, f"obstructed at stage {report.stage}")
        return Outcome(1, lifted=False)


def _rings(cs):
    ring = cs.ring
    return [
        (mode.value, ring.RingDescriptor(mode, 3))
        for mode in (ring.Mode.POLYNOMIAL, ring.Mode.LAURENT)
    ]


def _mixed_coordinate(cs, target):
    """The coordinate mu of c1*c2 left after factoring out the variable-2
    specialization; the lift needs the transvection search exactly when it is
    nonzero."""
    base = target.mat.map(lambda x: x.specialize(2))
    remainder = base.inverse() * target.mat
    _, mu, _, _ = cs.ring.delta_split_quadratic(remainder[1, 0])
    return mu


def _multiple_of_c1(cs, mu):
    """Whether mu is an integer multiple of c1."""
    try:
        quotient = mu.divide_exact(mu.ring.c(1))
    except cs.ring.NotDivisibleError:
        return False
    return set(quotient.terms) <= {(0,) * mu.ring.nvars}


WORKLOADS = {w.name: w for w in (VerifyAll(), CertifyWords(), PreimageLift())}


def purge_colstab() -> None:
    for name in list(sys.modules):
        if name == "colstab" or name.startswith("colstab."):
            del sys.modules[name]
