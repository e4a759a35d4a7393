"""Behaviour extraction: trained network → SMV model (paper §IV-A).

Two model flavours, matching Fig. 3:

- :func:`dataset_fsm_module` — the no-noise FSM whose non-determinism is
  the choice of test sample (Fig. 3(b): 3 states, 6 transitions);
- :func:`network_noise_module` — the per-input noise model: every input
  node carries an integer noise percentage chosen non-deterministically
  each step, and the network's arithmetic is unrolled into ``DEFINE``
  macros over scaled integers (Fig. 3(c)).

The translation is exact: :func:`validate_translation` (property P1)
replays the dataset through the SMV semantics and compares every
predicted label against the quantised network.
"""

from __future__ import annotations

import numpy as np

from ..config import NoiseConfig
from ..errors import VerificationError
from ..fsm import TransitionSystem, evaluate_expression
from ..nn.quantize import QuantizedNetwork
from ..smv.ast import (
    Assignments,
    BinOp,
    BoolLit,
    CaseExpr,
    Call,
    EnumType,
    Expr,
    Ident,
    IntLit,
    RangeType,
    SetExpr,
    SmvModule,
)
from ..verify.encoder import ScaledQuery, build_query


def _sum_expr(terms: list[Expr], constant: int) -> Expr:
    """Σ terms + constant as a left-leaning BinOp chain."""
    expr: Expr = IntLit(constant)
    for term in terms:
        expr = BinOp("+", expr, term)
    return expr


def network_noise_module(
    network: QuantizedNetwork,
    x,
    true_label: int,
    noise: NoiseConfig,
    module_name: str = "fannet",
    noisy_bias_node: bool = False,
) -> tuple[SmvModule, ScaledQuery]:
    """Translate one noise query into an SMV module.

    Structure (all integers, exactness per the scaled encoding):

    - ``VAR phase : {initial, eval}`` and one noise variable per input;
    - ``DEFINE xn_i := x_i·(100 + p_i)``, pre-activations, ReLUs via
      ``max(0, ·)``, output comparison via the argmax tie-break rule;
    - ``INVARSPEC phase = initial | oc = Sx``  (property P2).

    With ``noisy_bias_node=True`` the constant bias input of Fig. 3(a)
    becomes a sixth noisy node (the paper's FSM counts it: 2^6 noise
    assignments give the 65-state machine of Fig. 3(c)); the bias term of
    every first-layer neuron is scaled by ``(100 + p_bias)/100``.

    Returns the module together with the matching :class:`ScaledQuery`
    (the arithmetic engines answer the same question — the test suite
    keeps the two paths in agreement).
    """
    query = build_query(network, x, true_label, noise)

    module = SmvModule(name=module_name)
    module.variables["phase"] = EnumType(("initial", "eval"))
    module.assigns = Assignments(
        init={"phase": Ident("initial")},
        next={"phase": Ident("eval")},
    )

    noise_values = noise.percent_values()
    num_noise_vars = query.num_inputs + (1 if noisy_bias_node else 0)
    for i in range(num_noise_vars):
        name = f"p{i}"
        module.variables[name] = RangeType(noise.low, noise.high)
        module.assigns.init[name] = IntLit(0)
        module.assigns.next[name] = SetExpr(tuple(IntLit(v) for v in noise_values))

    # Noisy scaled inputs.
    previous_names = []
    for i in range(query.num_inputs):
        module.defines[f"xn{i}"] = BinOp(
            "*",
            IntLit(int(query.x[i])),
            BinOp("+", IntLit(100), Ident(f"p{i}")),
        )
        previous_names.append(f"xn{i}")

    # Hidden layers: n / a chains.
    for layer_index in range(query.num_layers - 1):
        weight = query.weights[layer_index]
        bias = query.biases[layer_index]
        next_names = []
        for j in range(weight.shape[0]):
            terms = [
                BinOp("*", IntLit(int(weight[j][i])), Ident(previous_names[i]))
                for i in range(weight.shape[1])
                if int(weight[j][i]) != 0
            ]
            if layer_index == 0 and noisy_bias_node:
                # bias · (100 + p_bias), at the same scale as the clean
                # 100·bias term (query biases carry the extra factor 100).
                scaled_bias = int(bias[j]) // 100
                terms.append(
                    BinOp(
                        "*",
                        IntLit(scaled_bias),
                        BinOp(
                            "+",
                            IntLit(100),
                            Ident(f"p{query.num_inputs}"),
                        ),
                    )
                )
                module.defines[f"n{layer_index}_{j}"] = _sum_expr(terms, 0)
            else:
                module.defines[f"n{layer_index}_{j}"] = _sum_expr(terms, int(bias[j]))
            module.defines[f"a{layer_index}_{j}"] = Call(
                "max", (IntLit(0), Ident(f"n{layer_index}_{j}"))
            )
            next_names.append(f"a{layer_index}_{j}")
        previous_names = next_names

    # Output layer.
    weight = query.weights[-1]
    bias = query.biases[-1]
    output_names = []
    for k in range(query.num_outputs):
        terms = [
            BinOp("*", IntLit(int(weight[k][i])), Ident(previous_names[i]))
            for i in range(weight.shape[1])
            if int(weight[k][i]) != 0
        ]
        module.defines[f"o{k}"] = _sum_expr(terms, int(bias[k]))
        output_names.append(f"o{k}")

    # Classification: argmax with ties to the lower index, written as the
    # paper's ordered conditional ⟨L0 ≥ L1 → L0, L1 ≥ L0 → L1⟩.
    module.defines["oc"] = _argmax_case(output_names)

    # Property P2: after the initial state, the output matches Sx.
    module.invarspecs.append(
        BinOp(
            "|",
            BinOp("=", Ident("phase"), Ident("initial")),
            BinOp("=", Ident("oc"), IntLit(true_label)),
        )
    )
    return module, query


def _argmax_case(output_names: list[str]) -> Expr:
    """``case``-encoded argmax with lower-index tie-break."""
    branches = []
    for k, name in enumerate(output_names):
        conditions: Expr = BoolLit(True)
        for other_index, other in enumerate(output_names):
            if other == name:
                continue
            comparison = BinOp(
                ">=" if other_index > k else ">", Ident(name), Ident(other)
            )
            conditions = BinOp("&", conditions, comparison)
        branches.append((conditions, IntLit(k)))
    branches.append((BoolLit(True), IntLit(0)))  # unreachable safety default
    return CaseExpr(tuple(branches))


def dataset_fsm_module(
    network: QuantizedNetwork,
    inputs,
    module_name: str = "fannet_dataset",
) -> SmvModule:
    """Fig. 3(b): the dataset-non-deterministic, no-noise FSM.

    Each step the FSM visits the output label of a non-deterministically
    chosen sample.  With both labels present in ``inputs`` this is the
    paper's 3-state / 6-transition machine.
    """
    labels = sorted({int(network.predict(x)) for x in inputs})
    if not labels:
        raise VerificationError("dataset_fsm_module needs at least one input")

    module = SmvModule(name=module_name)
    symbols = tuple(["initial"] + [f"l{label}" for label in labels])
    module.variables["state"] = EnumType(symbols)
    module.assigns = Assignments(
        init={"state": Ident("initial")},
        next={"state": SetExpr(tuple(Ident(f"l{label}") for label in labels))},
    )
    return module


def validate_translation(
    module: SmvModule,
    query: ScaledQuery,
    noise_vectors=None,
) -> bool:
    """Property P1: the SMV semantics and the scaled query agree.

    Evaluates the module's ``oc`` DEFINE on concrete noise assignments
    (the zero vector plus any supplied vectors) and compares with the
    exact integer evaluator.  Raises on mismatch, returns True otherwise.
    """
    vectors = [tuple([0] * query.num_inputs)]
    if noise_vectors is not None:
        vectors.extend(tuple(v) for v in noise_vectors)
    for vector in vectors:
        state = {"phase": "eval"}
        for i, value in enumerate(vector):
            state[f"p{i}"] = int(value)
        smv_label = evaluate_expression(Ident("oc"), state, module)
        exact_label = query.predict_single(vector)
        if smv_label != exact_label:
            raise VerificationError(
                f"P1 violation: SMV model predicts {smv_label}, network "
                f"predicts {exact_label} under noise {vector}"
            )
    return True


def noise_model_state_counts(
    network: QuantizedNetwork,
    x,
    true_label: int,
    noise: NoiseConfig,
    max_states: int = 1_000_000,
    noisy_bias_node: bool = False,
) -> tuple[int, int]:
    """(states, transitions) of the noise FSM.

    With ``noisy_bias_node=True`` and noise range ``[0, 1]`` % this
    reproduces Fig. 3(c) exactly: 65 states and 4160 transitions.
    """
    from ..fsm import count_states_and_transitions

    module, _ = network_noise_module(
        network, x, true_label, noise, noisy_bias_node=noisy_bias_node
    )
    system = TransitionSystem(module)
    return count_states_and_transitions(system, max_states=max_states)
