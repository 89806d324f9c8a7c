"""Checks on qce outputs, computed apart from qce.

Nothing here imports qce: every reference value (entropies from the
benchmark's own eigenvalues, channel actions from the Kraus operators,
closed-form game values, classical game values, certificate reconstructions)
is recomputed with plain numpy.  Each ``*_errors`` function returns a list
of messages, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

EIG_CUT = 1e-12


# ---------------------------------------------------------------------------
# entropy


def entropy_bits(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > EIG_CUT]
    return float(-(lam * np.log2(lam)).sum())


def trace_out_a(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("ajak->jk", np.asarray(mat).reshape(da, db, da, db))


def cond_entropy_bits(mat: np.ndarray, da: int, db: int) -> float:
    """H(AB) - H(B) from the benchmark's own eigenvalues."""
    return entropy_bits(mat) - entropy_bits(trace_out_a(mat, da, db))


def state_score_errors(kind: str, mat: np.ndarray, dims, s: dict) -> list[str]:
    """Scores of one state request: umegaki, dmax, vn and the two duals."""
    da, db = dims
    errs = []
    floor = -math.log2(min(da, db))
    if kind == "maxent":
        for k in ("umegaki", "dmax"):
            if abs(s[k] - floor) > 1e-8:
                errs.append(f"{k} {s[k]!r} on the maximally entangled state is not -log2 d = {floor!r}")
    for k in ("umegaki", "dmax"):
        if s[k] < floor - 1e-7:
            errs.append(f"{k} {s[k]!r} below the floor {floor!r}")
    if kind == "separable" and s["umegaki"] < -1e-8:
        errs.append(f"umegaki {s['umegaki']!r} negative on a separable state")
    own = cond_entropy_bits(mat, da, db)
    for k in ("umegaki", "vn"):
        if abs(s[k] - own) > 1e-8:
            errs.append(f"{k} {s[k]!r} differs from H(AB) - H(B) = {own!r}")
    if s["dmax"] > s["umegaki"] + 1e-9:
        errs.append(f"dmax {s['dmax']!r} above umegaki {s['umegaki']!r}")
    if abs(s["dual_umegaki"] - s["umegaki"]) > 1e-7:
        errs.append(f"umegaki dual {s['dual_umegaki']!r} differs from umegaki {s['umegaki']!r}")
    if s["dual_dmax"] < s["umegaki"] - 1e-7:
        errs.append(f"dmax dual {s['dual_dmax']!r} below umegaki {s['umegaki']!r}")
    return errs


# ---------------------------------------------------------------------------
# channels


def apply_kraus(kraus, mat: np.ndarray) -> np.ndarray:
    return sum(k @ mat @ k.conj().T for k in kraus)


def unital_product_deviation(kraus, da: int, db: int, rho_b: np.ndarray) -> float:
    """Distance of N(u_A (x) rho_B) from u_A' (x) (its own B marginal)."""
    out = apply_kraus(kraus, np.kron(np.eye(da) / da, rho_b))
    da_out = da
    db_out = out.shape[0] // da_out
    target = np.kron(np.eye(da_out) / da_out, trace_out_a(out, da_out, db_out))
    return float(np.abs(out - target).max())


def channel_errors(o: dict) -> list[str]:
    """One channel request: construction, verdicts, action and monotonicity."""
    errs = []
    v = o["verdict"]
    if not (v["conditionally_unital"] and v["semicausal_choi"]) or v["max_violation"] > 1e-7:
        errs.append(f"{o['name']} not verified CUSC: {v}")
    c = o["control_verdict"]
    if (c["conditionally_unital"] and c["semicausal_choi"]) or c["max_violation"] < 1e-3:
        errs.append(f"control {o['control']} not rejected: {c}")
    da, db = o["in_dims"]
    dev = unital_product_deviation(o["kraus"], da, db, o["rho_b"])
    if dev > 1e-7:
        errs.append(f"{o['name']}: N(u_A x rho_B) is {dev:.2e} from a product with maximally mixed A")
    cda, cdb = o["control_dims"]
    cdev = unital_product_deviation(o["control_kraus"], cda, cdb, o["control_rho_b"])
    if cdev < 1e-3:
        errs.append(f"control {o['control']}: N(u_A x rho_B) only {cdev:.2e} from a product")
    for k in ("umegaki", "dmax"):
        if o["h_out"][k] < o["h_in"][k] - 1e-7:
            errs.append(f"{o['name']}: {k} fell from {o['h_in'][k]!r} to {o['h_out'][k]!r}")
    if "target" in o:
        own = apply_kraus(o["kraus"], o["input"])
        for label, got in (("own action", own), ("output", o["output"])):
            gap = float(np.abs(got - o["target"]).max())
            if gap > 1e-8:
                errs.append(f"{o['name']}: {label} on the maximally entangled state is {gap:.2e} from the target")
    return errs


# ---------------------------------------------------------------------------
# games


def ky_fan_prefixes(spec_desc: np.ndarray, n: int) -> np.ndarray:
    """Sums of the w largest entries for w = 1..n, saturating at the full sum."""
    pref = np.cumsum(spec_desc)
    return np.array([pref[min(w, pref.size) - 1] for w in range(1, n + 1)])


def zoo_closed_form(kind: str, game: str, p, gamma: float = 0.0, sigma_eigs=None) -> float:
    """Optimal reward of the named qubit channels on the Bell and zero games."""
    p = np.asarray(p, dtype=float)
    p1 = float(p[0])
    bell = game == "bell"
    if kind == "unitary":
        return 1.0
    if kind in ("classical_identity", "povm"):
        return 1.0 - p1 / 2.0 if bell else 1.0
    if kind == "depolarizing":
        if bell:
            return (1.0 - gamma) + gamma * float((np.arange(1, p.size + 1) * p).sum()) / 4.0
        return 1.0 - gamma * p1 / 2.0
    if kind in ("amplitude_damping", "dephasing"):
        return 1.0 - gamma * p1 / 2.0 if bell else 1.0
    if kind == "replacement":
        lam = np.sort(np.asarray(sigma_eigs, dtype=float))[::-1]
        spec = np.sort(np.concatenate([lam / 2.0, lam / 2.0]))[::-1] if bell else lam
        return float(p @ ky_fan_prefixes(spec, p.size))
    raise ValueError(f"no closed form for {kind!r}")


def reward_bound_errors(value: float, closed: float, label: str) -> list[str]:
    """Optimised values may fall short of the optimum by 1e-3, never exceed it."""
    if not closed - 1e-3 <= value <= closed + 1e-9:
        return [f"{label}: reward {value!r} outside [{closed - 1e-3!r}, {closed + 1e-9!r}]"]
    return []


def win_rate_errors(wins: int, rounds: int, closed: float, label: str) -> list[str]:
    """Replayed win rate within 5 standard errors of the closed form.

    The replayed strategy is an optimiser's, allowed to fall 1e-3 short of the
    optimum, so that shortfall is added to the allowance.
    """
    se = math.sqrt(max(closed * (1.0 - closed), 0.0) / rounds)
    rate = wins / rounds
    if abs(rate - closed) > 5.0 * se + 1e-3:
        return [f"{label}: win rate {rate!r} more than 5 standard errors ({se:.2e}) from {closed!r}"]
    return []


def product_state_reward(rho_a: np.ndarray, host_t: np.ndarray) -> float:
    """Reward without adversary of a product state: Bob's side carries no information."""
    lam = np.sort(np.clip(np.linalg.eigvalsh(rho_a), 0.0, None))[::-1]
    return float((ky_fan_prefixes(lam, host_t.shape[0]) @ host_t).max())


# ---------------------------------------------------------------------------
# classical


def classical_game_value(p: np.ndarray, host_t: np.ndarray) -> float:
    """Best classical win probability: per Bob symbol, the best answer column."""
    total = 0.0
    for y in range(p.shape[1]):
        col = np.sort(p[:, y])[::-1]
        total += float((ky_fan_prefixes(col, host_t.shape[0]) @ host_t).max())
    return total


def shannon_cond_entropy(p: np.ndarray) -> float:
    total = 0.0
    for y in range(p.shape[1]):
        qy = p[:, y].sum()
        if qy <= 1e-15:
            continue
        c = p[:, y][p[:, y] > 1e-15] / qy
        total -= qy * float((c * np.log2(c)).sum())
    return total


def certificate_errors(p: np.ndarray, q: np.ndarray, t: np.ndarray, ds: np.ndarray, tol: float = 1e-7) -> list[str]:
    """t row-stochastic, blocks doubly stochastic, sum_y t D p_y rebuilds Q."""
    errs = []
    if t.min() < -tol or np.abs(t.sum(axis=1) - 1.0).max() > tol:
        errs.append("certificate t is not row-stochastic")
    if ds.min() < -tol or np.abs(ds.sum(axis=2) - 1.0).max() > tol or np.abs(ds.sum(axis=3) - 1.0).max() > tol:
        errs.append("certificate blocks are not doubly stochastic")
    recon = np.einsum("yw,ywrc,cy->rw", t, ds, p)
    gap = float(np.abs(recon - q).max())
    if gap > tol:
        errs.append(f"certificate rebuilds Q only to {gap:.2e}")
    return errs


def fixed_w_hosts(m: int) -> list[np.ndarray]:
    out = []
    for w in range(1, m + 1):
        t = np.zeros((m, 1))
        t[w - 1, 0] = 1.0
        out.append(t)
    return out


def majorization_errors(o: dict) -> list[str]:
    """One classical pair: verdict, certificate or witness, ordering, embedding."""
    p, q = o["p"], o["q"]
    errs = []
    if o["made"] and not o["feasible"]:
        errs.append("a pair built from P by a conditional redistribution was judged infeasible")
    if o["feasible"]:
        errs += certificate_errors(p, q, o["cert_t"], o["cert_ds"])
        for t in fixed_w_hosts(p.shape[0]) + list(o["hosts"]):
            vp, vq = classical_game_value(p, t), classical_game_value(q, t)
            if vq > vp + 1e-9:
                errs.append(f"game value rose from {vp!r} to {vq!r} on a feasible pair")
        hp, hq = shannon_cond_entropy(p), shannon_cond_entropy(q)
        if hq < hp - 1e-9:
            errs.append(f"H(X|Y) fell from {hp!r} to {hq!r} on a feasible pair")
    elif o["witness_t"] is not None:
        t = o["witness_t"]
        vp, vq = classical_game_value(p, t), classical_game_value(q, t)
        if not vq > vp + 1e-6:
            errs.append(f"witness does not make Q beat P: {vq!r} vs {vp!r}")
    for t, got in zip(o["hosts"], o["embedded"]):
        want = classical_game_value(p, t)
        if abs(got - want) > 1e-6:
            errs.append(f"embedded-state reward {got!r} differs from the classical value {want!r}")
    return errs
