"""Brute-force cross-check of the quantum game engine.

The engine keeps the final chain elements (the public key) classical and
folds them into operators as constants and scalar outcome weights.  This
reference simulation materializes them as genuine qubit registers and runs
the whole experiment densely with explicit per-basis-index loops, then the
two winning probabilities are compared to near machine precision.

Configuration: chain scheme, n = 1, a = 1, w = 2, one workspace qubit.  Every
register is a single qubit, so the extended space has 11 qubits and the loops
stay transparent.
"""

import numpy as np
import pytest

import reference
from qromlab import game, ots, qsim, rom
from qromlab.qworlds import winternitz_world

REGS = ["x", "y", "m", "s0", "s1", "b", "e", "g0", "g1", "e0", "e1"]
NBITS = len(REGS)
DIM = 1 << NBITS
SHIFT = {name: NBITS - 1 - k for k, name in enumerate(REGS)}


def get(idx, name):
    return (idx >> SHIFT[name]) & 1


def flip(idx, name, bit):
    return idx ^ (bit << SHIFT[name])


def dense_factor(state, c, j, w):
    """Compare x with chain register (c, j); on match XOR the successor
    register (the materialized endpoint when j+1 is the chain end) into y."""
    out = np.zeros_like(state)
    succ_reg = f"g{c}" if j + 1 <= w - 2 else f"e{c}"
    this_reg = f"g{c}"
    for idx in range(DIM):
        if state[idx] == 0:
            continue
        if get(idx, "x") == get(idx, this_reg):
            out[flip(idx, "y", get(idx, succ_reg))] += state[idx]
        else:
            out[idx] += state[idx]
    return out


def dense_mismatch(state, h_table, w):
    out = np.zeros_like(state)
    for idx in range(DIM):
        if state[idx] == 0:
            continue
        x = get(idx, "x")
        if any(get(idx, f"g{c}") == x for c in (0, 1)):
            out[idx] += state[idx]
        else:
            out[flip(idx, "y", h_table[x])] += state[idx]
    return out


def dense_query_unitary(state, h_table, w):
    # mismatch branch first, then the factors right-to-left in
    # (chain ascending, position ascending) written order
    state = dense_mismatch(state, h_table, w)
    for c in (1, 0):
        for j in range(w - 2, -1, -1):
            state = dense_factor(state, c, j, w)
    return state


def dense_bsign(state, world):
    out = np.zeros_like(state)
    for idx in range(DIM):
        if state[idx] == 0:
            continue
        m = get(idx, "m")
        if m in world.blinding:
            out[idx] += state[idx]
            continue
        b = ots.digit_vector(m, world.params)
        new = idx
        for i in range(2):
            src = f"g{i}" if b[i] <= world.w - 2 else f"e{i}"
            new = flip(new, f"s{i}", get(idx, src))
        out[new] += state[idx]
    return out


def dense_phi(state, name, sign):
    """Uniform projector (sign=0) or its complement (sign=1) on one qubit."""
    out = state.copy()
    for idx in range(DIM):
        if get(idx, name) == 0:
            other = flip(idx, name, 1)
            mean = (state[idx] + state[other]) / 2.0
            if sign == 0:
                out[idx], out[other] = mean, mean
            else:
                out[idx], out[other] = state[idx] - mean, state[other] - mean
    return out


def dense_qtilde(state, world, outcome):
    """Outcome projector controlled on the message register, acting on the
    materialized registers (endpoints included, no scalar shortcuts)."""
    out = np.zeros_like(state)
    for m in range(2):
        masked = np.array(
            [state[idx] if get(idx, "m") == m else 0.0 for idx in range(DIM)],
            dtype=complex,
        )
        b = ots.digit_vector(m, world.params)
        regs = [f"g{i}" if b[i] <= world.w - 2 else f"e{i}" for i in range(2)]
        upto = 2 if outcome == 3 else outcome
        for k in range(upto):
            last = outcome <= 2 and k == outcome - 1
            masked = dense_phi(masked, regs[k], 0 if last else 1)
        out += masked
    return out


def dense_embed_unitary(state, matrix, names):
    """Local unitary on listed single-qubit registers, leading-first order."""
    k = len(names)
    out = np.zeros_like(state)
    for idx in range(DIM):
        if state[idx] == 0:
            continue
        col = 0
        for name in names:
            col = (col << 1) | get(idx, name)
        for row in range(1 << k):
            new = idx
            for pos, name in enumerate(names):
                new = (new & ~(1 << SHIFT[name])) | (
                    ((row >> (k - 1 - pos)) & 1) << SHIFT[name]
                )
            out[new] += matrix[row, col] * state[idx]
    return out


def dense_outcome_weights(state):
    """W[m, sigma, gamma]: squared amplitudes with every other register
    (endpoints included) traced out."""
    w = np.zeros((2, 4, 4))
    for idx in range(DIM):
        a = abs(state[idx]) ** 2
        if a == 0:
            continue
        m = get(idx, "m")
        sigma = (get(idx, "s0") << 1) | get(idx, "s1")
        gamma = (get(idx, "g0") << 1) | get(idx, "g1")
        w[m, sigma, gamma] += a
    return w


def dense_accept(world):
    acc = np.zeros((2, 4, 4), dtype=bool)
    for m in range(2):
        b = ots.digit_vector(m, world.params)
        for gamma in range(4):
            assignment = {"g0_0": (gamma >> 1) & 1, "g1_0": gamma & 1}
            oracle = world.overlay_oracle(assignment)
            for sigma in range(4):
                blocks = [(sigma >> 1) & 1, sigma & 1]
                ok = all(
                    ots.chain_eval(blocks[i], b[i], world.w - 1, oracle) == world.p[i]
                    for i in range(2)
                )
                acc[m, sigma, gamma] = ok
    return acc


@pytest.mark.parametrize("blinded", [{0}, {1}, {0, 1}])
@pytest.mark.parametrize("queries", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_engine_matches_dense_reference(blinded, queries):
    q0, q1 = queries
    world = winternitz_world(
        1, 1, 2, blinding=reference.blinding(1, blinded), seed=77, workspace_qubits=1
    )
    program = game.random_program(
        world, q0, q1, seed=rom.derive_seed(77, "dense", q0, q1, tuple(sorted(blinded)))
    )
    _, analysis = game.run_quantum_game(program, world, mode="modified", seed=77)

    # dense reference: endpoints e0/e1 are real qubits pinned to the public key
    state = np.zeros(DIM, dtype=complex)
    base = (world.p[0] << SHIFT["e0"]) | (world.p[1] << SHIFT["e1"])
    for g in range(4):
        idx = base | (((g >> 1) & 1) << SHIFT["g0"]) | ((g & 1) << SHIFT["g1"])
        state[idx] = 0.5
    for step in program.steps:
        if isinstance(step, game.ApplyUnitary):
            names = [
                {"sig0": "s0", "sig1": "s1", "g0_0": "g0", "g1_0": "g1"}.get(r, r)
                for r in step.registers
            ]
            state = dense_embed_unitary(state, step.matrix, names)
        elif isinstance(step, game.HashQuery):
            state = dense_query_unitary(state, world.h_table, world.w)
        elif isinstance(step, game.SignQuery):
            state = dense_bsign(state, world)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10
    accept = dense_accept(world)
    w_plain = dense_outcome_weights(state)
    w_out = [dense_outcome_weights(dense_qtilde(state, world, i)) for i in (1, 2, 3)]
    bmask = np.zeros(2, dtype=bool)
    for m in blinded:
        bmask[m] = True
    p_plain = float((w_plain[bmask] * accept[bmask]).sum())
    p_mod = float(sum((w[bmask] * accept[bmask]).sum() for w in w_out))
    p_forced = float(w_out[-1][bmask].sum())

    assert p_plain == pytest.approx(analysis.p_win_plain, abs=1e-12)
    assert p_mod == pytest.approx(analysis.p_win_modified, abs=1e-12)
    assert p_forced == pytest.approx(analysis.p_forced_outcome_blinded, abs=1e-12)
