"""Optional numba ``@njit(cache=True)`` twins of the reference kernels.

This module is the ONLY place in the repository allowed to import numba
(staticcheck rule R10).  When numba is absent the module still imports
cleanly and exports an empty :data:`COMPILED_KERNELS`; the dispatch layer
then serves every call from :mod:`repro.kernels.numpy_impl`.

Every function here must be bit-identical to its numpy reference for all
admissible inputs.  The two places where that is not automatic:

- sorting: the compiled ``group_pairs`` uses mergesort, which is stable;
  a stable sort's permutation is unique, so it matches numpy's
  ``kind="stable"`` argsort exactly;
- event order: ``sketch_event_filter`` emits events in row-major
  (edge, epoch, repetition) order, matching the numpy kernel's flat
  positions of the equal table entries;
- float sums: ``partition_scores`` accumulates small exact integers in
  float64, so summation order cannot change the result.

Compilation is lazy (first call per dtype signature) and disk-cached
(``cache=True``), so steady-state dispatch overhead is one dict lookup.
"""

import numpy as np

__all__ = ["COMPILED_KERNELS", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the numpy-only environment
    njit = None
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def mod_horner(coeffs, xs, p, stepwise):
        n = xs.shape[0]
        k = coeffs.shape[0]
        out = np.empty(n, dtype=np.int64)
        for t in range(n):
            x = xs[t]
            acc = 0
            if stepwise:
                for d in range(k - 1, -1, -1):
                    acc = (acc * x + coeffs[d]) % p
            else:
                for d in range(k - 1, -1, -1):
                    acc = acc * x + coeffs[d]
                acc = acc % p
            out[t] = acc
        return out

    @njit(cache=True)
    def eval_coeffs(coeffs2, xs, p, stepwise):
        n = xs.shape[0]
        m_count, k = coeffs2.shape
        out = np.empty((n, m_count), dtype=np.int64)
        for t in range(n):
            x = xs[t]
            for m in range(m_count):
                acc = 0
                if stepwise:
                    for d in range(k - 1, -1, -1):
                        acc = (acc * x + coeffs2[m, d]) % p
                else:
                    for d in range(k - 1, -1, -1):
                        acc = acc * x + coeffs2[m, d]
                    acc = acc % p
                out[t, m] = acc
        return out

    @njit(cache=True)
    def partition_class_array(a, b, p, s, universe):
        arr = np.zeros(universe + 1, dtype=np.int64)
        for c in range(1, universe + 1):
            arr[c] = ((a * c + b) % p) % s
        return arr

    @njit(cache=True)
    def sketch_event_filter(cmp_rows, inv_u, inv_v):
        """Events of a block: ``cmp_rows`` is the ``(n, epochs, reps)``
        hash table, ``inv_u`` / ``inv_v`` the raw endpoint ids."""
        k = inv_u.shape[0]
        if k == 0 or cmp_rows.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        epochs = cmp_rows.shape[1]
        reps = cmp_rows.shape[2]
        count = 0
        for t in range(k):
            ru, rv = inv_u[t], inv_v[t]
            for i in range(epochs):
                for j in range(reps):
                    if cmp_rows[ru, i, j] == cmp_rows[rv, i, j]:
                        count += 1
        ev_e = np.empty(count, dtype=np.int64)
        ev_i = np.empty(count, dtype=np.int64)
        ev_j = np.empty(count, dtype=np.int64)
        pos = 0
        for t in range(k):
            ru, rv = inv_u[t], inv_v[t]
            for i in range(epochs):
                for j in range(reps):
                    if cmp_rows[ru, i, j] == cmp_rows[rv, i, j]:
                        ev_e[pos] = t
                        ev_i[pos] = i
                        ev_j[pos] = j
                        pos += 1
        return ev_e, ev_i, ev_j

    @njit(cache=True)
    def running_degrees(deg0, edges):
        k = edges.shape[0]
        counts = np.zeros(deg0.shape[0], dtype=np.int64)
        out = np.empty((k, 2), dtype=np.int64)
        for e in range(k):
            u = edges[e, 0]
            v = edges[e, 1]
            # Positional, like the reference ranks over the flat endpoint
            # array: endpoint 1 counts endpoint 0 of the same edge.
            out[e, 0] = deg0[u] + counts[u]
            counts[u] += 1
            out[e, 1] = deg0[v] + counts[v]
            counts[v] += 1
        return out

    @njit(cache=True)
    def group_pairs(pairs):
        order = np.argsort(pairs[:, 0], kind="mergesort")
        k = order.shape[0]
        xs = np.empty(k, dtype=np.int64)
        ys = np.empty(k, dtype=np.int64)
        for i in range(k):
            xs[i] = pairs[order[i], 0]
            ys[i] = pairs[order[i], 1]
        runs = 1
        for i in range(1, k):
            if xs[i] != xs[i - 1]:
                runs += 1
        starts = np.empty(runs, dtype=np.int64)
        starts[0] = 0
        pos = 1
        for i in range(1, k):
            if xs[i] != xs[i - 1]:
                starts[pos] = i
                pos += 1
        return xs, ys, starts

    @njit(cache=True)
    def det_slack_keys(x, y, chi_arr, unc, cube_value, low_mask, fixed, s):
        k = x.shape[0]
        count = 0
        for t in range(k):
            xt = x[t]
            cy = chi_arr[y[t]]
            if unc[xt] and cy > 0 and ((cy - 1) & low_mask) == cube_value[xt]:
                count += 1
        keys = np.empty(count, dtype=np.int64)
        pos = 0
        for t in range(k):
            xt = x[t]
            cy = chi_arr[y[t]]
            if unc[xt] and cy > 0 and ((cy - 1) & low_mask) == cube_value[xt]:
                pattern = ((cy - 1) >> fixed) & (s - 1)
                keys[pos] = xt * s + pattern
                pos += 1
        return keys

    @njit(cache=True)
    def det_conflict_mask(u, v, unc, cube_value):
        k = u.shape[0]
        out = np.empty(k, dtype=np.bool_)
        for t in range(k):
            ut, vt = u[t], v[t]
            out[t] = unc[ut] and unc[vt] and cube_value[ut] == cube_value[vt]
        return out

    @njit(cache=True)
    def chain_conflict_mask(u, v, member_mask, chain_matrix):
        k = u.shape[0]
        stages = chain_matrix.shape[0]
        out = np.empty(k, dtype=np.bool_)
        for i in range(k):
            ut, vt = u[i], v[i]
            ok = member_mask[ut] and member_mask[vt]
            if ok:
                for t in range(stages):
                    if chain_matrix[t, ut] != chain_matrix[t, vt]:
                        ok = False
                        break
            out[i] = ok
        return out

    @njit(cache=True)
    def contains_pairs(part_stack, chain_matrix, xs, colors):
        k = xs.shape[0]
        stages = part_stack.shape[0]
        out = np.empty(k, dtype=np.bool_)
        for i in range(k):
            ok = True
            for t in range(stages):
                if part_stack[t, colors[i]] != chain_matrix[t, xs[i]]:
                    ok = False
                    break
            out[i] = ok
        return out

    @njit(cache=True)
    def partition_scores(sub_table, survivors, group_ids, num_groups, s):
        m_count = sub_table.shape[0]
        scores = np.zeros(num_groups, dtype=np.float64)
        occupancy = np.zeros(s, dtype=np.int64)
        for m in range(m_count):
            for t in range(survivors.shape[0]):
                occupancy[sub_table[m, survivors[t]]] += 1
            best = 0
            for cls in range(s):
                if occupancy[cls] > best:
                    best = occupancy[cls]
                occupancy[cls] = 0
            if best > 1:
                scores[group_ids[m]] += best - 1
        return scores

    COMPILED_KERNELS = {
        "mod_horner": mod_horner,
        "eval_coeffs": eval_coeffs,
        "partition_class_array": partition_class_array,
        "sketch_event_filter": sketch_event_filter,
        "running_degrees": running_degrees,
        "group_pairs": group_pairs,
        "det_slack_keys": det_slack_keys,
        "det_conflict_mask": det_conflict_mask,
        "chain_conflict_mask": chain_conflict_mask,
        "contains_pairs": contains_pairs,
        "partition_scores": partition_scores,
    }
else:
    COMPILED_KERNELS = {}
