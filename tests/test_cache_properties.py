"""Property-based harness for the monotone cache and the disk store.

Randomised adversarial coverage of the two claims the runtime's cache
layer must never get wrong, checked on small random quantised networks:

1. **Soundness of derivation** — every monotone-derived verdict equals
   the verdict a *cold* solver produces for that exact ``(input,
   percent)`` query, every derived witness is a genuine in-range
   counterexample, and an Eq.-3 probe answers the same with the cache on
   or off.  :class:`~repro.verify.result.LadderFacts`, the one rule
   behind every derivation, is checked on its own against a drawn
   ground-truth boundary.
2. **Transparency of persistence** — analysis reports are bit-identical
   with persistence on, off, and warm-from-disk, and the warm replay
   issues zero solver calls.

Networks are kept tiny (2 inputs, ≤3 hidden units) so the exhaustive /
portfolio engines answer each cold query in milliseconds, which lets the
harness afford a fresh solver call per derived verdict.  Their decision
boundary is drawn near the input (:func:`boundary_cases`), so most
ladders hold both ROBUST and VULNERABLE rungs.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.config import RuntimeConfig
from repro.core import NoiseToleranceAnalysis
from repro.data.dataset import Dataset
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.runtime import (
    MISS,
    CacheStore,
    QueryCache,
    QueryRunner,
    ProbeTask,
    ToleranceSearchTask,
    make_key,
)
from repro.verify.result import LadderFacts, VerificationResult, VerificationStatus

from reference_engines import fig2_search

SCALE = 1000
MAX_PERCENT = 12  # (2·12+1)² = 625 noise vectors: exhaustively checkable

HARNESS = settings(
    max_examples=20,
    deadline=None,  # solver latency varies; flakiness is worse than slowness
    suppress_health_check=[HealthCheck.too_slow],
)

weight = st.integers(min_value=-2500, max_value=2500)


inputs = st.tuples(
    st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=25)
)
percents = st.integers(min_value=1, max_value=MAX_PERCENT)


@st.composite
def quantized_networks(draw, anchor=None) -> QuantizedNetwork:
    """Random 2-input, 2-output networks with one small hidden ReLU layer.

    Given an ``anchor`` input, the second output bias is drawn so that
    both logits tie at a noisy copy of the anchor, with up to
    ±1.5·MAX_PERCENT noise per input.  The anchor then flips within
    ±MAX_PERCENT in about 3 draws in 5, against about 1 in 20 unbiased.
    """
    hidden = draw(st.integers(min_value=2, max_value=3))

    def frac_matrix(rows, cols):
        return tuple(
            tuple(Fraction(draw(weight), SCALE) for _ in range(cols))
            for _ in range(rows)
        )

    def frac_vector(size):
        return tuple(Fraction(draw(weight), SCALE) for _ in range(size))

    first = QuantizedLayer(frac_matrix(hidden, 2), frac_vector(hidden), relu=True)
    out_weights, out_bias = frac_matrix(2, hidden), frac_vector(2)
    if anchor is not None:
        reach = st.integers(-3 * MAX_PERCENT // 2, 3 * MAX_PERCENT // 2)
        noisy = [Fraction(v * (100 + draw(reach)), 100) for v in anchor]
        act = [
            max(Fraction(0), b + sum(w * v for w, v in zip(row, noisy)))
            for row, b in zip(first.weights, first.bias)
        ]
        tie = out_bias[0] + sum(
            (w0 - w1) * a for w0, w1, a in zip(*out_weights, act)
        )
        out_bias = (out_bias[0], Fraction(round(tie * SCALE), SCALE))
    return QuantizedNetwork(
        [first, QuantizedLayer(out_weights, out_bias, relu=False)]
    )


@st.composite
def boundary_cases(draw) -> tuple[QuantizedNetwork, tuple[int, int]]:
    """An input and a network whose decision boundary passes near it."""
    x = draw(inputs)
    return draw(quantized_networks(anchor=x)), x


#: A fixed single-node flip for the probe property's examples: node 1
#: at −24% flips input (15, 14).
FLIPPABLE = QuantizedNetwork(
    [
        QuantizedLayer(
            ((Fraction(1), Fraction(-1)), (Fraction(-1, 2), Fraction(3, 2))),
            (Fraction(0), Fraction(1, 10)),
            relu=True,
        ),
        QuantizedLayer(
            ((Fraction(1), Fraction(-1, 5)), (Fraction(-1), Fraction(4, 5))),
            (Fraction(0), Fraction(0)),
            relu=False,
        ),
    ]
)


def _needle() -> QuantizedNetwork:
    """Five inputs, one flipping noise vector: output 1 wins only where
    every noisy input equals its target exactly (the hidden pair per
    input sums to its distance from the target).  At input 100 each the
    only flip is (7, -6, 5, 7, -7): off the corner grid, one point in
    15^5 at ±7 %, so neither falsifier finds it and the complete stage
    decides the minimum flip."""
    rows, bias = [], []
    for node, offset in enumerate((7, -6, 5, 7, -7)):
        for sign in (1, -1):
            row = [Fraction(0)] * 5
            row[node] = Fraction(sign)
            rows.append(tuple(row))
            bias.append(Fraction(-sign * (100 + offset)))
    return QuantizedNetwork(
        [
            QuantizedLayer(tuple(rows), tuple(bias), relu=True),
            QuantizedLayer(
                ((Fraction(0),) * 10, (Fraction(-1),) * 10),
                (Fraction(0), Fraction(1, 2)),
                relu=False,
            ),
        ]
    )


NEEDLE = _needle()


def search(runner, x, label, ceiling) -> dict:
    """One input's tolerance search (cache index -1) on ``runner``."""
    task = ToleranceSearchTask(index=-1, x=tuple(x), true_label=label, ceiling=ceiling)
    return task.run(runner)


def cold_verify(network, x, label, percent):
    """A from-scratch solver answer for one exact (input, percent) query."""
    return QueryRunner(network, runtime=RuntimeConfig(cache=False)).verify_at(
        x, label, percent
    )


class TestToleranceSearchMatchesFig2:
    @HARNESS
    @given(case=boundary_cases(), ceiling=st.integers(MAX_PERCENT // 2, MAX_PERCENT))
    @example(case=(NEEDLE, (100,) * 5), ceiling=9)
    def test_one_frontier_search_equals_the_literal_loop(self, case, ceiling):
        """The search reads the least VULNERABLE rung off one frontier
        call; the paper's loop shrinks the range one point at a time over
        cache-off queries.  Both give the same minimum, witness and wrong
        label, with the cache on and off.  Ceilings start at half the
        range so that most drawn ladders reach their boundary."""
        network, x = case
        label = network.predict(x)
        cold = QueryRunner(network, runtime=RuntimeConfig(cache=False))
        answers = {}

        def verify(percent):
            answers[percent] = cold.verify_at(x, label, percent)
            return answers[percent]

        expected = fig2_search(verify, ceiling)
        flip = expected["min_flip_percent"]
        if flip is None:
            event("robust at ceiling")
        elif answers[flip].stats["stage"] == "corner":
            event("flip decided by corner")
        elif answers[flip].stats["stage"] in ("exhaustive", "session"):
            event("flip decided by the complete stage")
        for cache in (True, False):
            runner = QueryRunner(network, runtime=RuntimeConfig(cache=cache))
            assert search(runner, x, label, ceiling) == expected


class TestMonotoneDerivationSoundness:
    @HARNESS
    @given(
        case=boundary_cases(),
        schedule=st.lists(percents, min_size=2, max_size=8, unique=True),
    )
    def test_derived_verify_verdicts_match_a_cold_solver(self, case, schedule):
        network, x = case
        label = network.predict(x)
        runner = QueryRunner(network)
        for percent in schedule:
            derived_before = runner.cache.stats.derived_hits
            result = runner.verify_at(x, label, percent)
            if runner.cache.stats.derived_hits == derived_before:
                continue  # exact hit or engine-proved: nothing to cross-check
            cold = cold_verify(network, x, label, percent)
            assert result.status == cold.status, (
                f"derived {result.status} at ±{percent}% but a cold solver "
                f"says {cold.status} (engine {result.engine})"
            )
            if result.is_vulnerable:
                witness = result.witness
                assert witness is not None
                assert max(abs(v) for v in witness) <= percent
                flipped = network.predict_noisy(x, witness)
                assert flipped != label
                assert flipped == result.predicted_label

    @HARNESS
    @given(
        case=boundary_cases(),
        others=st.lists(inputs, max_size=2),
        node=st.integers(min_value=0, max_value=1),
        sign=st.sampled_from([-1, 1]),
        ceiling=st.integers(min_value=1, max_value=60),
    )
    @example(
        case=(FLIPPABLE, (20, 10)), others=[(15, 14)], node=1, sign=-1, ceiling=30
    )
    @example(case=(FLIPPABLE, (15, 14)), others=[], node=1, sign=-1, ceiling=23)
    def test_probe_task_finds_the_least_flip(
        self, case, others, node, sign, ceiling
    ):
        network, x = case
        xs = [x, *others]
        probe_inputs = tuple((i, x, network.predict(x)) for i, x in enumerate(xs))

        def flips(magnitude) -> bool:
            noise = [0, 0]
            noise[node] = sign * magnitude
            return any(
                network.predict_noisy(x, noise) != label for _, x, label in probe_inputs
            )

        least = next((m for m in range(1, ceiling + 1) if flips(m)), None)
        for cache in (True, False):
            runner = QueryRunner(network, runtime=RuntimeConfig(cache=cache))
            task = ProbeTask(node=node, sign=sign, ceiling=ceiling, inputs=probe_inputs)
            assert task.run(runner) == least

    @HARNESS
    @given(case=boundary_cases(), ceiling=st.integers(4, MAX_PERCENT))
    def test_every_percent_answer_after_a_search_matches_cold(self, case, ceiling):
        """After a bisection, *all* percents ≤ ceiling are implied — and right."""
        network, x = case
        label = network.predict(x)
        runner = QueryRunner(network)
        search(runner, x, label, ceiling)
        solver_calls = runner.stats.solver_calls
        for percent in range(1, ceiling + 1):
            result = runner.verify_at(x, label, percent)
            cold = cold_verify(network, x, label, percent)
            assert result.status == cold.status
        # The post-search sweep was answered entirely from the cache.
        assert runner.stats.solver_calls == solver_calls


LADDER = 40


@st.composite
def ladder_notes(draw):
    """A ground-truth flip boundary and engine verdicts consistent with it.

    ``boundary`` is the least VULNERABLE percent (``LADDER + 1``: robust
    on the whole ladder).  Each note is ``(percent, verdict)`` in the
    order it is noted: ROBUST or UNKNOWN below the boundary, VULNERABLE
    or UNKNOWN at or above it.  Each witness records its note's percent
    and position, so a derived witness names its source.
    """
    boundary = draw(st.integers(1, LADDER + 1))
    notes = []
    for position, percent in enumerate(
        draw(st.lists(st.integers(1, LADDER), max_size=12))
    ):
        if draw(st.booleans()):
            verdict = VerificationResult(VerificationStatus.UNKNOWN)
        elif percent < boundary:
            verdict = VerificationResult(VerificationStatus.ROBUST)
        else:
            verdict = VerificationResult(
                VerificationStatus.VULNERABLE,
                witness=(percent, position),
                predicted_label=1,
            )
        notes.append((percent, verdict))
    return boundary, notes


class TestLadderFacts:
    @settings(max_examples=200, deadline=None)
    @given(case=ladder_notes())
    def test_implied_verdicts_follow_the_noted_extremes(self, case):
        boundary, notes = case
        facts = LadderFacts()
        for percent, verdict in notes:
            facts.note(percent, verdict)
        robust = [p for p, v in notes if v.is_robust]
        vulnerable = [p for p, v in notes if v.is_vulnerable]
        robust_max = max(robust, default=0)
        vulnerable_min = min(vulnerable, default=LADDER + 1)
        for percent in range(1, LADDER + 1):
            implied = facts.implied(percent)
            if robust_max < percent < vulnerable_min:
                assert implied is None
                continue
            assert implied is not None
            # Never contradicts the ground truth.
            assert implied.is_vulnerable == (percent >= boundary)
            if implied.is_robust:
                source = robust_max
                assert implied.witness is None
            else:
                source = vulnerable_min
                assert implied.witness[0] == vulnerable_min
                assert implied.predicted_label == 1
            kind = implied.status.value
            assert implied.engine == f"monotone({kind}@±{source}%)"
            assert implied.stats == {"derived_from_percent": source}


def canonical(report) -> list:
    """A tolerance report as comparable plain data (bit-identical check)."""
    return [
        (e.index, e.true_label, e.min_flip_percent, e.witness, e.flipped_to)
        for e in report.per_input
    ]


@st.composite
def small_datasets(draw) -> Dataset:
    features = draw(st.lists(inputs, min_size=2, max_size=3, unique=True))
    return Dataset(features=[list(f) for f in features], labels=[0] * len(features))


@st.composite
def anchored_datasets(draw) -> tuple[QuantizedNetwork, Dataset]:
    """A small dataset and a network whose decision boundary passes near
    its first input, drawn as :func:`boundary_cases` draws."""
    dataset = draw(small_datasets())
    return draw(quantized_networks(anchor=dataset.features[0])), dataset


class TestPersistenceTransparency:
    @HARNESS
    @given(case=anchored_datasets(), ceiling=st.integers(4, MAX_PERCENT))
    def test_reports_bit_identical_with_persistence_on_off_and_warm(
        self, case, ceiling, tmp_path_factory
    ):
        network, dataset = case
        dataset = Dataset(
            features=dataset.features,
            labels=[network.predict(f) for f in dataset.features],
        )
        cache_dir = str(tmp_path_factory.mktemp("qcache"))
        persisted = RuntimeConfig(cache_dir=cache_dir)

        off = NoiseToleranceAnalysis(network, search_ceiling=ceiling)
        report_off = off.analyze(dataset)

        on = NoiseToleranceAnalysis(
            network, search_ceiling=ceiling, runtime=persisted
        )
        report_on = on.analyze(dataset)
        on.runner.close()
        assert canonical(report_on) == canonical(report_off)
        assert on.runner.store.saved_entries > 0

        warm = NoiseToleranceAnalysis(
            network, search_ceiling=ceiling, runtime=persisted
        )
        report_warm = warm.analyze(dataset)
        assert canonical(report_warm) == canonical(report_off)
        assert warm.runner.stats.solver_calls == 0  # everything came from disk
        assert warm.runner.store.loaded_entries > 0

    @HARNESS
    @given(
        case=boundary_cases(),
        first=st.integers(4, MAX_PERCENT),
        second=st.integers(4, MAX_PERCENT),
    )
    def test_warm_start_at_a_new_ceiling_still_matches_cold(
        self, case, first, second, tmp_path_factory
    ):
        """Monotone reuse across runs with *different* ceilings stays sound."""
        network, x = case
        label = network.predict(x)
        cache_dir = str(tmp_path_factory.mktemp("qcache"))
        persisted = RuntimeConfig(cache_dir=cache_dir)

        run1 = QueryRunner(network, runtime=persisted)
        search(run1, x, label, first)
        run1.close()

        run2 = QueryRunner(network, runtime=persisted)
        entry = search(run2, x, label, second)
        cold = search(
            QueryRunner(network, runtime=RuntimeConfig(cache=False)), x, label, second
        )
        fields = ("min_flip_percent", "witness", "flipped_to")
        assert [entry[f] for f in fields] == [cold[f] for f in fields]


class TestStoreRoundTripProperty:
    @HARNESS
    @given(
        payloads=st.dictionaries(
            keys=st.tuples(
                st.sampled_from(["verify", "extract", "probe"]),
                st.integers(-1, 5),
                st.tuples(st.integers(0, 50), st.integers(0, 50)),
                st.integers(0, 1),
                percents,
            ),
            values=st.one_of(
                st.none(), st.booleans(), st.integers(), st.text(max_size=8)
            ),
            max_size=12,
        ),
        context=st.from_regex(r"[0-9a-f]{6}:[0-9a-f]{6}", fullmatch=True),
    )
    def test_any_entry_dict_round_trips_exactly(
        self, payloads, context, tmp_path_factory
    ):
        entries = {
            make_key(kind, index, x, label, percent): value
            for (kind, index, x, label, percent), value in payloads.items()
        }
        store = CacheStore(tmp_path_factory.mktemp("qcache"))
        store.save(context, entries)
        loaded = store.load(context)
        assert loaded == entries
        # MISS-vs-None discipline survives the disk: None payloads load
        # as real entries, not as absent keys.
        cache = QueryCache()
        cache.preload(loaded)
        for key, value in entries.items():
            got = cache.peek(key)
            assert got is not MISS
            assert got == value or (got is None and value is None)
