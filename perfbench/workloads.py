"""The three workloads: seeded job lists, set-up, one job, output checks.

Every job list is a pure function of ``(workload, seed, seconds)``: the
same arguments give the same inputs, so two runs of one seed do the same
work and must print the same output digest.  Lists have a fixed length
(sized from ``seconds`` by a nominal per-workload rate) rather than a
fixed duration, so a faster program finishes the same work sooner
instead of doing more of it.
"""

from __future__ import annotations

import random

import checks

#: Set-up samples per run; setup_s is their median.
SETUP_REPEATS = 3

#: Nominal job rates used to size the fixed job lists from ``--seconds``.
PAPER_SECONDS_PER_JOB = 2.2
DEEP_JOBS_PER_SECOND = 1.7
SERVE_REQUESTS_PER_SECOND = 180

PAPER_SEARCH_CEILING = 60
PAPER_EXTRACTION_PERCENT = 9
PAPER_MAJORITY_PER_JOB = 6
DEEP_CEILING = 100
DEEP_JITTER_FROM = 20
SERVE_MAX_PERCENT = 60
#: One request in this many brings a new input; the rest revisit one,
#: SERVE_EXACT_REPEAT of them at a percent that input was asked at before.
SERVE_FRESH_EVERY = 10
SERVE_EXACT_REPEAT = 0.8


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:")


def job_count(workload: str, seconds: float) -> int:
    if workload == "paper-pipeline":
        return max(2, round(seconds / PAPER_SECONDS_PER_JOB))
    if workload == "deep-band":
        return max(2, round(seconds * DEEP_JOBS_PER_SECOND))
    return max(50, round(seconds * SERVE_REQUESTS_PER_SECOND))


# -- set-up ------------------------------------------------------------------


def import_program():
    """Import every module a workload's set-up and jobs use."""
    import repro.config  # noqa: F401
    import repro.core  # noqa: F401
    import repro.data  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.runtime  # noqa: F401


def setup_paper():
    """Case study (mRMR), the paper's 5-20-2 network, quantisation."""
    from dataclasses import replace

    from repro.config import FannetConfig, RuntimeConfig
    from repro.data import load_leukemia_case_study
    from repro.nn import quantize_network, train_paper_network

    config = replace(FannetConfig(), runtime=RuntimeConfig(workers=1))
    case_study = load_leukemia_case_study(config)
    trained = train_paper_network(
        case_study.train.features, case_study.train.labels, config.train
    )
    quantized = quantize_network(trained.network, weight_scale=config.weight_scale)
    return {"config": config, "case_study": case_study,
            "network": trained.network, "quantized": quantized}


def setup_deep():
    """Case study (mRMR), the seeded deep 5-12-12-2 variant, quantisation.

    The recipe (init seed 3, two-phase SGD schedule, seed 3) is the deep
    boundary-band substrate of the frontier and incremental benchmarks.
    """
    import numpy as np

    from repro.data import load_leukemia_case_study
    from repro.nn import Network, SgdTrainer, quantize_network
    from repro.nn.layers import DenseLayer

    case_study = load_leukemia_case_study()
    rng = np.random.default_rng(3)
    network = Network([
        DenseLayer.from_init(rng, 5, 12, activation="relu"),
        DenseLayer.from_init(rng, 12, 12, activation="relu"),
        DenseLayer.from_init(rng, 12, 2, activation="linear"),
    ])
    trainer = SgdTrainer(schedule=[(150, 0.4), (100, 0.15)], seed=3)
    trainer.fit(network, np.asarray(case_study.train.features, dtype=float),
                np.asarray(case_study.train.labels))
    return {"case_study": case_study, "quantized": quantize_network(network)}


SETUPS = {"paper-pipeline": setup_paper, "deep-band": setup_deep}


# -- paper-pipeline ----------------------------------------------------------


def paper_jobs(state, seed: int, seconds: float) -> list[list[int]]:
    """Test-set subsets: every minority-class (L0) input plus a seed-drawn
    sample of majority-class inputs, in seed-drawn order.

    The paper finds every noise flip goes L0 -> L1, so the L0 inputs are
    where P3 finds its vectors; keeping all of them in every job makes
    job cost depend on the program, not on which inputs a seed drew.
    """
    labels = [int(v) for v in state["case_study"].test.labels]
    minority = [i for i, label in enumerate(labels) if label == 0]
    majority = [i for i, label in enumerate(labels) if label != 0]
    rng = rng_for("paper-pipeline", seed)
    jobs = []
    for _ in range(job_count("paper-pipeline", seconds)):
        subset = minority + rng.sample(majority, PAPER_MAJORITY_PER_JOB)
        rng.shuffle(subset)
        jobs.append(subset)
    return jobs


def paper_run(state, subset):
    from repro.core import Fannet
    from repro.data import Dataset

    test = state["case_study"].test
    data = Dataset(test.features[subset], test.labels[subset])
    fannet = Fannet(state["network"], state["case_study"].train, data, state["config"])
    try:
        report = fannet.analyze(
            search_ceiling=PAPER_SEARCH_CEILING,
            extraction_percent=PAPER_EXTRACTION_PERCENT,
            probe_sensitivity=True,
        )
    finally:
        fannet.close()
    return data, report


def paper_output(data, report) -> dict:
    return {
        "accuracy": [report.train_accuracy, report.test_accuracy],
        "tolerance": [
            [e.index, e.true_label, e.min_flip_percent,
             None if e.witness is None else [int(v) for v in e.witness], e.flipped_to]
            for e in report.tolerance.per_input
        ],
        "extraction": [
            [e.index, e.true_label, [[int(v) for v in vec] for vec in e.vectors],
             [int(v) for v in e.flipped_to], e.exhausted]
            for e in report.extraction.per_input
        ],
        "bias": sorted([list(k), v] for k, v in report.bias.flip_matrix.items()),
        "census": [[n.node, n.positive, n.negative, n.zero]
                   for n in report.sensitivity.nodes],
        "single_node": sorted([k, list(v)] for k, v in
                              report.sensitivity.single_node_flips.items()),
    }


def paper_problems(net: checks.IntegerNetwork, data, output: dict) -> list[str]:
    features = [[int(v) for v in row] for row in data.features]
    problems = []
    for index, label, flip, witness, flipped_to in output["tolerance"]:
        x = features[index]
        if flip is None:
            problem = checks.robust_sample_problem(
                net, x, label, PAPER_SEARCH_CEILING, seed=index)
        else:
            problem = checks.witness_problem(net, x, label, witness, flip, flipped_to)
        if problem:
            problems.append(f"tolerance input {index}: {problem}")
    census = [[node, 0, 0, 0] for node in range(len(features[0]))]
    flips: dict[tuple, int] = {}
    for index, label, vectors, flipped_to, _ in output["extraction"]:
        for vector, wrong in zip(vectors, flipped_to):
            problem = checks.witness_problem(
                net, features[index], label, vector, PAPER_EXTRACTION_PERCENT, wrong)
            if problem:
                problems.append(f"P3 input {index}: {problem}")
            for node, value in enumerate(vector):
                census[node][1 if value > 0 else 2 if value < 0 else 3] += 1
            flips[(label, wrong)] = flips.get((label, wrong), 0) + 1
    if census != output["census"]:
        problems.append("sensitivity census disagrees with the extracted vectors")
    if sorted([list(k), v] for k, v in flips.items()) != output["bias"]:
        problems.append("bias flip matrix disagrees with the extracted vectors")
    labels = [int(v) for v in data.labels]
    for node, thresholds in output["single_node"]:
        for sign, threshold in zip((1, -1), thresholds):
            if threshold is None:
                continue
            vector = [0] * len(features[0])
            vector[node] = sign * threshold
            if not any(net.label(x, vector) != label
                       for x, label in zip(features, labels)):
                problems.append(f"node {node} sign {sign}: no input flips at {threshold}")
    return problems


# -- deep-band ---------------------------------------------------------------


def deep_jobs(state, seed: int, seconds: float) -> list[tuple[list[int], int]]:
    """Integer-jittered copies of the test inputs, in test-set order,
    labelled by the network's own prediction so that none is skipped.

    Features of at least DEEP_JITTER_FROM move by a seed-drawn -1, 0 or
    +1 (at most 5 %).  Jittering the small features too moved a run's
    simplex pivots by up to 9 % from seed to seed, against 2 % this way.
    """
    test = state["case_study"].test
    quantized = state["quantized"]
    rng = rng_for("deep-band", seed)
    jobs = []
    for j in range(job_count("deep-band", seconds)):
        base = [int(v) for v in test.features[j % test.num_samples]]
        x = [v + rng.choice((-1, 0, 1)) if v >= DEEP_JITTER_FROM else v for v in base]
        jobs.append((x, quantized.predict(x)))
    return jobs


def deep_run(state, job):
    import numpy as np

    from repro.config import RuntimeConfig
    from repro.core import NoiseToleranceAnalysis
    from repro.data import Dataset
    from repro.runtime import make_key

    x, label = job
    analysis = NoiseToleranceAnalysis(
        state["quantized"], search_ceiling=DEEP_CEILING,
        runtime=RuntimeConfig(workers=1))
    data = Dataset(np.asarray([x], dtype=np.int64), np.asarray([label]))
    percents = list(range(1, DEEP_CEILING + 1))
    analysis.sweep(data, percents)
    rungs = []
    for percent in percents:
        result = analysis.runner.cache.peek(make_key("verify", 0, tuple(x), label, percent))
        rungs.append([percent, result.status.value,
                      None if result.witness is None else [int(v) for v in result.witness],
                      result.predicted_label])
    return analysis, rungs


def deep_output(job, rungs) -> dict:
    return {"x": job[0], "label": job[1], "rungs": rungs}


def deep_problems(net: checks.IntegerNetwork, output: dict, seed: int) -> list[str]:
    x, label = output["x"], output["label"]
    problems = []
    verdicts = {}
    for percent, status, witness, predicted in output["rungs"]:
        verdicts[percent] = status
        if status == "vulnerable":
            problem = checks.witness_problem(net, x, label, witness, percent, predicted)
            if problem:
                problems.append(f"±{percent}%: {problem}")
        elif status != "robust":
            problems.append(f"±{percent}%: undecided verdict {status!r}")
    problem = checks.ladder_problem(verdicts)
    if problem:
        problems.append(problem)
    robust = [p for p, status in verdicts.items() if status == "robust"]
    if robust:
        problem = checks.robust_sample_problem(net, x, label, max(robust), seed)
        if problem:
            problems.append(problem)
    return problems


# -- serve-verify ------------------------------------------------------------


def serve_requests(net: checks.IntegerNetwork, test_features, seed: int,
                   seconds: float) -> list[tuple]:
    """(input id, input, label, percent) requests.

    One request in SERVE_FRESH_EVERY brings a new input (a jittered copy
    of a seed-drawn test input, labelled by the network's own prediction)
    and is a cache miss.  The others revisit an earlier input, mostly at
    a percent it was already asked at (an exact hit), otherwise at a
    fresh percent (a monotone-derived hit when an earlier verdict implies
    it, else a miss).  About 4 in 5 requests are cache reads.
    """
    rng = rng_for("serve-verify", seed)
    inputs: list[tuple[list[int], int]] = []
    asked: list[list[int]] = []
    requests = []
    for k in range(job_count("serve-verify", seconds)):
        if k % SERVE_FRESH_EVERY == 0:
            base = test_features[rng.randrange(len(test_features))]
            x = [max(1, v + rng.choice((-1, 0, 1))) for v in base]
            inputs.append((x, net.label(x, [0] * len(x))))
            asked.append([])
            input_id = len(inputs) - 1
        else:
            input_id = rng.randrange(len(inputs))
        if asked[input_id] and rng.random() < SERVE_EXACT_REPEAT:
            percent = rng.choice(asked[input_id])
        else:
            percent = rng.randint(1, SERVE_MAX_PERCENT)
            asked[input_id].append(percent)
        x, label = inputs[input_id]
        requests.append((input_id, x, label, percent))
    return requests


def serve_problems(net: checks.IntegerNetwork, requests, answers) -> list[list[str]]:
    """Per-request problems: witness rechecks, repeat identity, monotonicity."""
    first: dict[tuple, dict] = {}
    ladders: dict[int, dict[int, str]] = {}
    problems: list[list[str]] = []
    for (input_id, x, label, percent), answer in zip(requests, answers):
        found = []
        if answer["status"] == "vulnerable":
            problem = checks.witness_problem(
                net, x, label, answer["witness"], percent, answer["predicted_label"])
            if problem:
                found.append(problem)
        elif answer["status"] != "robust":
            found.append(f"undecided verdict {answer['status']!r}")
        # A monotone-derived answer names (and may take its witness from)
        # whichever cached verdict implied it, so repeats must agree on
        # the verdict; each witness is rechecked on its own above.
        previous = first.setdefault((input_id, percent), answer)
        if previous["status"] != answer["status"]:
            found.append(f"repeat of input {input_id} at ±{percent}% changed verdict")
        ladders.setdefault(input_id, {})[percent] = answer["status"]
        problems.append(found)
    inputs = {input_id: (x, label) for input_id, x, label, _ in requests}
    for input_id, verdicts in ladders.items():
        problem = checks.ladder_problem(verdicts)
        robust = [p for p, status in verdicts.items() if status == "robust"]
        if problem is None and robust:
            problem = checks.robust_sample_problem(
                net, *inputs[input_id], max(robust), seed=input_id)
        if problem:
            for k, request in enumerate(requests):
                if request[0] == input_id:
                    problems[k].append(f"input {input_id}: {problem}")
    return problems
