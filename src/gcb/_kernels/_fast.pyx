# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel: the float cover sweep, a DFS over factor supports.

Mirrors ``pyref.py``; the equivalence tests hold the two implementations to
identical counts and matching sums.
"""

import numpy as np

cimport numpy as cnp
from libc.stdlib cimport free, malloc
from libc.math cimport pow

from .plan import perm_tables

IS_COMPILED = True

cnp.import_array()


cdef struct CFactor:
    long arity
    long n_rows
    long n_bound
    long n_free
    long n_groups
    long *edge_idx
    long *twist
    long *bound_sel
    long *free_sel
    long *bound_radix
    signed char *rows
    double *values
    long *group_offset


cdef struct CPlan:
    long n_factors
    long n_edges
    CFactor *factors


cdef long* _copy_long(object arr) except NULL:
    cdef cnp.ndarray[cnp.int64_t, ndim=1] a = np.ascontiguousarray(arr, dtype=np.int64)
    cdef long n = a.shape[0]
    cdef long *out = <long*>malloc(sizeof(long) * max(n, 1))
    if out == NULL:
        raise MemoryError()
    cdef long i
    for i in range(n):
        out[i] = a[i]
    return out


cdef signed char* _copy_i8(object arr) except NULL:
    cdef cnp.ndarray[cnp.int8_t, ndim=2] a = np.ascontiguousarray(arr, dtype=np.int8)
    cdef long n = a.shape[0] * a.shape[1]
    cdef signed char *out = <signed char*>malloc(sizeof(signed char) * max(n, 1))
    if out == NULL:
        raise MemoryError()
    cdef long i, j, k = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[k] = a[i, j]
            k += 1
    return out


cdef double* _copy_f64(object arr) except NULL:
    cdef cnp.ndarray[cnp.float64_t, ndim=1] a = np.ascontiguousarray(arr, dtype=np.float64)
    cdef long n = a.shape[0]
    cdef double *out = <double*>malloc(sizeof(double) * max(n, 1))
    if out == NULL:
        raise MemoryError()
    cdef long i
    for i in range(n):
        out[i] = a[i]
    return out


cdef CPlan* _build_cplan(object plan) except NULL:
    cdef CPlan *cp = <CPlan*>malloc(sizeof(CPlan))
    if cp == NULL:
        raise MemoryError()
    cp.n_factors = len(plan.factors)
    cp.n_edges = len(plan.sizes)
    cp.factors = <CFactor*>malloc(sizeof(CFactor) * max(cp.n_factors, 1))
    if cp.factors == NULL:
        free(cp)
        raise MemoryError()
    cdef long i
    for i in range(cp.n_factors):
        fp = plan.factors[i]
        cp.factors[i].arity = len(fp.edge_idx)
        cp.factors[i].n_rows = fp.rows.shape[0]
        cp.factors[i].n_bound = len(fp.bound_sel)
        cp.factors[i].n_free = len(fp.free_sel)
        cp.factors[i].n_groups = fp.n_groups
        cp.factors[i].edge_idx = _copy_long(fp.edge_idx)
        cp.factors[i].twist = _copy_long(fp.twist)
        cp.factors[i].bound_sel = _copy_long(fp.bound_sel)
        cp.factors[i].free_sel = _copy_long(fp.free_sel)
        cp.factors[i].bound_radix = _copy_long(fp.bound_radix)
        cp.factors[i].rows = _copy_i8(fp.rows)
        cp.factors[i].values = _copy_f64(fp.values)
        cp.factors[i].group_offset = _copy_long(fp.group_offset)
    return cp


cdef void _free_cplan(CPlan *cp) noexcept:
    cdef long i
    if cp == NULL:
        return
    for i in range(cp.n_factors):
        free(cp.factors[i].edge_idx)
        free(cp.factors[i].twist)
        free(cp.factors[i].bound_sel)
        free(cp.factors[i].free_sel)
        free(cp.factors[i].bound_radix)
        free(cp.factors[i].rows)
        free(cp.factors[i].values)
        free(cp.factors[i].group_offset)
    free(cp.factors)
    free(cp)


cdef void _walk(CPlan *cp, long step, long total, long m_stride,
                long *assign, long *perm_inv, double prod, double inv_t,
                long long *count, double *zsum) noexcept nogil:
    cdef CFactor *fp
    cdef long m, p, j, r, lo, hi, key, base, m_eff
    cdef long slots[64]
    cdef bint ok
    cdef double v

    if step == total:
        count[0] += 1
        if inv_t == 1.0:
            zsum[0] += prod
        else:
            zsum[0] += pow(prod, inv_t)
        return

    if m_stride == 0:
        fp = &cp.factors[step]
        for p in range(fp.arity):
            slots[p] = fp.edge_idx[p]
    else:
        fp = &cp.factors[step // m_stride]
        m = step % m_stride
        for p in range(fp.arity):
            base = fp.edge_idx[p]
            if fp.twist[p]:
                m_eff = perm_inv[base * m_stride + m]
            else:
                m_eff = m
            slots[p] = base * m_stride + m_eff

    key = 0
    for j in range(fp.n_bound):
        key += assign[slots[fp.bound_sel[j]]] * fp.bound_radix[j]
    lo = fp.group_offset[key]
    hi = fp.group_offset[key + 1]
    for r in range(lo, hi):
        ok = True
        for j in range(fp.n_bound):
            p = fp.bound_sel[j]
            if assign[slots[p]] != fp.rows[r * fp.arity + p]:
                ok = False
                break
        if not ok:
            continue
        for j in range(fp.n_free):
            p = fp.free_sel[j]
            assign[slots[p]] = fp.rows[r * fp.arity + p]
        _walk(cp, step + 1, total, m_stride, assign, perm_inv,
              prod * fp.values[r], inv_t, count, zsum)
        for j in range(fp.n_free):
            p = fp.free_sel[j]
            assign[slots[p]] = -1


def cover_sweep(plan, full_edge_idx, long m, double inv_t, long long start, long long stop):
    """Sweep covers [start, stop); see the pure-Python twin for the contract."""
    perms_np, inv_np = perm_tables(m)
    cdef cnp.ndarray[cnp.int64_t, ndim=2] inv_arr = np.ascontiguousarray(inv_np, dtype=np.int64)
    cdef long n_fact = inv_arr.shape[0]
    cdef CPlan *cp = _build_cplan(plan)
    cdef long n_edges = cp.n_edges
    cdef cnp.ndarray[cnp.int64_t, ndim=1] fidx = np.ascontiguousarray(full_edge_idx, dtype=np.int64)
    cdef long n_full = fidx.shape[0]
    cdef long *assign = <long*>malloc(sizeof(long) * max(n_edges * m, 1))
    cdef long *perm_inv = <long*>malloc(sizeof(long) * max(n_edges * m, 1))
    cdef long *digits = <long*>malloc(sizeof(long) * max(n_full, 1))
    cdef long long index, rem
    cdef long i, j, k
    cdef long long count_total = 0, n_covers = 0, count = 0
    cdef double zsum_total = 0.0, zsum = 0.0
    try:
        with nogil:
            for i in range(n_edges * m):
                perm_inv[i] = i % m
            for index in range(start, stop):
                rem = index
                for j in range(n_full - 1, -1, -1):
                    digits[j] = <long>(rem % n_fact)
                    rem //= n_fact
                for j in range(n_full):
                    for k in range(m):
                        perm_inv[fidx[j] * m + k] = inv_arr[digits[j], k]
                for i in range(n_edges * m):
                    assign[i] = -1
                count = 0
                zsum = 0.0
                _walk(cp, 0, cp.n_factors * m, m, assign, perm_inv, 1.0, inv_t,
                      &count, &zsum)
                count_total += count
                zsum_total += zsum
                n_covers += 1
    finally:
        free(digits)
        free(perm_inv)
        free(assign)
        _free_cplan(cp)
    return float(zsum_total), int(count_total), int(n_covers)
