"""Hot numeric kernels, written in numpy.

Conventions shared by all kernels:

* ``coloc_cost[a, t]``  — objective weight applied when attribute ``a``
  is replicated on transaction ``t``'s site.
* ``replica_cost[a]``   — objective weight applied per replica of ``a``.
* ``coloc_load[a, t]``  — site load added at ``t``'s site when ``a``
  lives there.
* ``replica_load[a]``   — site load added at every site holding ``a``.
* ``txn_reads[a, t]``   — ``a`` must be present on ``t``'s site.
* ``txn_site[t]``       — site index per transaction.
* ``replicas[a, s]``    — attribute-to-site placement flags.
* ``cost_weight``       — mixes total cost (``cost_weight``) against the
  maximum per-site load (``1 - cost_weight``).
"""
from __future__ import annotations

import numpy as np

# The kernels have no compiled variant; benchmark run records still
# report this flag as the kernel path that ran.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# folded cost: objective and maximum site load for a fixed layout
# ---------------------------------------------------------------------------

def folded_cost(coloc_cost, replica_cost, coloc_load, replica_load,
                txn_site, replicas):
    """Return ``(objective, max_load)`` for a layout."""
    rep_f = replicas.astype(np.float64)
    site_of = replicas[:, txn_site]  # (A, T): is a on t's site
    obj = float((coloc_cost * site_of).sum()) + float(replica_cost @ rep_f.sum(axis=1))
    loads = rep_f.T @ replica_load  # (S,)
    per_txn = (coloc_load * site_of).sum(axis=0)  # (T,)
    np.add.at(loads, txn_site, per_txn)
    return obj, float(loads.max())


# ---------------------------------------------------------------------------
# greedy replica construction for a fixed transaction assignment
# ---------------------------------------------------------------------------

def greedy_replicas(txn_site, txn_reads, coloc_cost, replica_cost,
                    coloc_load, replica_load, cost_weight, n_sites):
    """Forced replicas, then profitable extras in ascending marginal-score
    order, then one covering replica for attributes still unplaced."""
    n_attrs, n_txns = coloc_cost.shape
    lam = cost_weight
    onehot = np.zeros((n_txns, n_sites), np.float64)
    if n_txns:
        onehot[np.arange(n_txns), txn_site] = 1.0
    csum = coloc_cost @ onehot
    lsum = coloc_load @ onehot
    replicas = (txn_reads.astype(np.int64) @ onehot.astype(np.int64)) > 0
    inc_all = lsum + replica_load[:, None]
    loads = np.where(replicas, inc_all, 0.0).sum(axis=0)
    m = float(loads.max())
    base_all = csum + replica_cost[:, None]

    # candidates that can ever have a negative marginal score: the load
    # term of an addition is nonnegative, so the weighted base must be < 0
    cand = np.argwhere(~replicas & (lam * base_all < 0.0))  # row-major order
    cand_list = [(int(a), int(s), base_all[a, s], inc_all[a, s]) for a, s in cand]
    alive = [True] * len(cand_list)
    remaining = len(cand_list)
    while remaining > 0:
        best = -1
        best_delta = 0.0
        for i, ok in enumerate(alive):
            if ok:
                _, s, base, inc = cand_list[i]
                grow = max(loads[s] + inc - m, 0.0)
                delta = lam * base + (1.0 - lam) * grow
                if best < 0 or delta < best_delta:
                    best = i
                    best_delta = delta
        if best < 0 or not (best_delta < 0.0):
            break
        a, s, _, inc = cand_list[best]
        replicas[a, s] = True
        loads[s] += inc
        m = max(m, float(loads[s]))
        alive[best] = False
        remaining -= 1

    # coverage: every attribute needs at least one site
    for a in np.flatnonzero(~replicas.any(axis=1)):
        grow = np.maximum(loads + inc_all[a] - m, 0.0)
        delta = lam * base_all[a] + (1.0 - lam) * grow
        s = int(np.argmin(delta))  # first minimum: lowest site wins ties
        replicas[a, s] = True
        loads[s] += inc_all[a, s]
        m = max(m, float(loads[s]))
    return replicas


# ---------------------------------------------------------------------------
# greedy transaction assignment for a fixed replica placement
# ---------------------------------------------------------------------------

def assign_transactions(replicas, txn_reads, coloc_cost, coloc_load,
                        replica_load, cost_weight, order):
    """Place transactions in ``order``, each on the feasible site with the
    lowest weighted-score increase; ``-1`` from the first one that fits
    on no site onwards."""
    n_attrs, n_txns = coloc_cost.shape
    lam = cost_weight
    rep_f = replicas.astype(np.float64)
    x = np.full(n_txns, -1, np.int64)
    loads = rep_f.T @ replica_load
    cval_all = coloc_cost.T @ rep_f  # (T, S)
    inc_all = coloc_load.T @ rep_f
    missing = txn_reads.astype(np.int64).T @ (~replicas).astype(np.int64)  # (T, S)
    for t in order:
        feasible = missing[t] == 0
        if not feasible.any():
            return x
        m = loads.max()
        grow = np.maximum(loads + inc_all[t] - m, 0.0)
        cost = lam * cval_all[t] + (1.0 - lam) * grow
        cost = np.where(feasible, cost, np.inf)
        s = int(np.argmin(cost))  # first minimum: lowest site wins ties
        x[t] = s
        loads[s] += inc_all[t, s]
    return x


# ---------------------------------------------------------------------------
# exhaustive enumeration of all feasible layouts (oracle)
# ---------------------------------------------------------------------------

def enumerate_layouts(coloc_cost, replica_cost, coloc_load, replica_load,
                      txn_reads, cost_weight, n_sites, forbid_replication,
                      write_attr, write_txn, write_freq, latency_penalty,
                      chunk=1 << 13):
    """Score every feasible layout and return the lexicographically first
    minimizer as ``(found, best_score, best_x, best_masks)``, where the
    masks are site bitmasks per attribute.

    Transaction assignments are walked as an odometer; for each, the
    replica-set choices per attribute that cover the forced sites are
    scored in vectorized chunks.  ``write_attr[a, w]`` flags attributes
    updated by write query ``w``, ``write_txn[w]`` is its transaction,
    ``write_freq[w]`` its frequency.  A write query pays
    ``latency_penalty * frequency`` (weighted into the score like the rest
    of the objective) whenever any updated attribute keeps a replica off
    the transaction's site.  Pass no write queries to price no latency.
    """
    n_attrs, n_txns = coloc_cost.shape
    n_s = n_sites
    n_w = write_txn.size
    lam = cost_weight
    full = (1 << n_s) - 1
    best_score = np.inf
    best_x = np.zeros(n_txns, np.int64)
    best_mask = np.zeros(n_attrs, np.int64)
    found = False

    all_masks = np.arange(1, full + 1, dtype=np.int64)
    mask_bits = ((all_masks[:, None] >> np.arange(n_s)) & 1).astype(np.float64)  # (M, S)
    if forbid_replication:
        keep = mask_bits.sum(axis=1) == 1
        all_masks, mask_bits = all_masks[keep], mask_bits[keep]

    x = np.zeros(n_txns, np.int64)
    while True:
        onehot = np.zeros((n_txns, n_s), np.float64)
        if n_txns:
            onehot[np.arange(n_txns), x] = 1.0
        csum = coloc_cost @ onehot
        lsum = coloc_load @ onehot
        forced = np.zeros(n_attrs, np.int64)
        for t in range(n_txns):
            forced |= np.where(txn_reads[:, t], np.int64(1) << np.int64(x[t]), 0)

        per_masks, per_obj, per_load, per_remote = [], [], [], []
        x_ok = True
        for a in range(n_attrs):
            sel = (all_masks & forced[a]) == forced[a]
            masks_a = all_masks[sel]
            if masks_a.size == 0:
                x_ok = False
                break
            bits_a = mask_bits[sel]  # (K, S)
            per_masks.append(masks_a)
            per_obj.append(bits_a @ csum[a] + bits_a.sum(axis=1) * replica_cost[a])
            per_load.append(bits_a * (lsum[a] + replica_load[a])[None, :])
            # remote replica count of a per write query: replicas minus the
            # one on the write's own site (if any)
            onsite = bits_a[:, x[write_txn]]
            per_remote.append((bits_a.sum(axis=1)[:, None] - onsite) * write_attr[a][None, :])

        if x_ok:
            counts = np.array([m.size for m in per_masks], np.int64)
            total = int(np.prod(counts)) if n_attrs else 1
            for start in range(0, total, chunk):
                stop = min(start + chunk, total)
                idx = np.arange(start, stop, dtype=np.int64)
                obj = np.zeros(stop - start, np.float64)
                loads = np.zeros((stop - start, n_s), np.float64)
                remote = np.zeros((stop - start, n_w), np.float64)
                digits = np.empty((n_attrs, stop - start), np.int64)
                rem = idx
                for a in range(n_attrs - 1, -1, -1):
                    digits[a] = rem % counts[a]
                    rem = rem // counts[a]
                for a in range(n_attrs):
                    d = digits[a]
                    obj += per_obj[a][d]
                    loads += per_load[a][d]
                    remote += per_remote[a][d]
                latency = latency_penalty * ((remote > 0) @ write_freq)
                score = lam * (obj + latency) + (1.0 - lam) * loads.max(axis=1)
                k = int(np.argmin(score))
                if score[k] < best_score:
                    best_score = float(score[k])
                    found = True
                    best_x = x.copy()
                    for a in range(n_attrs):
                        best_mask[a] = per_masks[a][digits[a, k]]

        tpos = n_txns - 1
        while tpos >= 0:
            if x[tpos] + 1 < n_s:
                x[tpos] += 1
                break
            x[tpos] = 0
            tpos -= 1
        if tpos < 0:
            break
    return found, best_score, best_x, best_mask
