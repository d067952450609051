"""cffi build recipe for the C translation of :mod:`repro.kernels._scalar`.

The C source below is a line-for-line translation of the scalar kernel
bodies (same float64 operation order, same libm transcendentals), so
the entry points are bit-identical to the python bodies —
``tests/unit/test_kernels.py`` asserts exact equality.

Builds are out-of-line cffi API-mode extensions, keyed by a content
hash of the declarations + source, cached under
``src/repro/kernels/_build/`` (override with ``REPRO_KERNEL_BUILD_DIR``)
and loaded via :mod:`importlib`.  Compilation happens in a
per-process scratch directory and the finished extension is moved into
place with :func:`os.replace`, so concurrent workers (the runner's
process pool) race benignly: first finisher wins, everyone loads the
same file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
import time
from pathlib import Path

__all__ = ["build_seconds", "load_cffi_kernels"]

#: Wall-clock seconds spent compiling + loading, for the warm-up span.
build_seconds: float = 0.0

CDEF = """
int64_t k_merge_trains(int64_t n_src, double *first, double *gaps,
    int64_t *counts, uint8_t *assoc, double d,
    double *out_t, int64_t *out_src, uint8_t *out_assoc);

int64_t k_pacing_plan(int64_t n, double *next_emit, double *paused,
    uint8_t *active, double *remaining, double *gaps, double until,
    double *first, int64_t *counts);

int64_t k_pacing_commit(int64_t n, int64_t m_committed, int64_t *srcs,
    double *first, double *gaps, int64_t *counts, int64_t any_finite,
    double *next_emit, double *remaining, uint8_t *active,
    int64_t *frames_acc, int64_t *comm, int64_t *fin_idx, double *fin_t);

void k_owed_repay(int64_t n, double *owed, double *next_emit,
    double *rates, double until, double nxt);

void k_packet_plan(int64_t m, double *times, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, int64_t n_res,
    double next_free, int64_t inflight, double frozen_until,
    double pause_rearm_at, double pause_horizon,
    double *starts, double *completions, double *q_bits,
    double *out_d, int64_t *out_i);

void k_packet_commit(int64_t m_eff, int64_t n_res, double *times,
    int64_t *srcs, uint8_t *assoc, double *q_bits, double *starts,
    double *completions, double t_start, double t_commit,
    int64_t prev_inflight, double prev_next_free, double *uniforms,
    int64_t use_rng, double pm, int64_t interval, int64_t since,
    double q_prev, double q0, double w, int64_t pos_only,
    int64_t req_assoc, double sigma_unit, double full_scale,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_qoff,
    double *msg_dq, double *msg_fb, double *samp_t, double *samp_sigma,
    double *out_d, int64_t *out_i);

void k_packet_scalar(int64_t m, double *times, int64_t *srcs,
    uint8_t *assoc, double *uniforms, int64_t use_rng, double pm,
    int64_t interval, int64_t since, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, double q0, double w,
    int64_t pos_only, int64_t req_assoc, double sigma_unit,
    double full_scale, int64_t backlog, double next_free0,
    int64_t inflight, double frozen_until, double pause_rearm_at,
    double pause_duration, double pause_horizon, double q_prev,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_qoff,
    double *msg_dq, double *msg_fb, double *samp_t, double *samp_sigma,
    double *drop_t, int64_t *drop_src, double *acc_arrivals,
    double *starts_out, double *pause_ts, double *out_d, int64_t *out_i);

void k_apply_messages(int64_t n, double *msg_t, int64_t *msg_src,
    double *msg_fb, double *msg_sigma, int64_t mode, double gi, double gd,
    double ru, double max_dt, double d, double t_commit,
    double *rate, double *last_update, uint8_t *assoc8, int64_t *updates,
    double *min_rate, double *line_rate, double *owed, double *out_d);

void k_fluid(int64_t m, int64_t n_steps, double *t_grid,
    double *x0, double *y0, double a, double b, double cap, double kk,
    double q0, double x_full, double x_empty, int64_t linear_dec,
    int64_t physical, int64_t max_switches, double conv_rtol,
    double t_max, double *xs, double *ys, int8_t *reason,
    int64_t *switches, double *t_end, double *x_end, double *y_end,
    int64_t ev_cap, int64_t *n_events, double *ev_t, int8_t *ev_kind,
    double *ev_x, double *ev_y, int64_t *out_i);
"""

_COMMON = r"""
#include <math.h>
#include <stdint.h>

/* np.round / python round(): ties to even (default FP rounding mode). */
static double round_half_even(double v) { return rint(v); }

static int64_t bisect_right(const double *arr, int64_t n, double v) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (arr[mid] <= v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

int64_t k_merge_trains(int64_t n_src, double *first, double *gaps,
    int64_t *counts, uint8_t *assoc, double d,
    double *out_t, int64_t *out_src, uint8_t *out_assoc)
{
    int64_t m = 0, i, size = 0, out;
    double hp_t[4096];
    int64_t hp_s[4096];
    int64_t emitted_stack[4096];
    double *ht = hp_t; int64_t *hs = hp_s, *emitted = emitted_stack;
    double *ht_heap = 0; int64_t *hs_heap = 0, *em_heap = 0;
    for (i = 0; i < n_src; i++) m += counts[i];
    if (m == 0) return 0;
    if (n_src > 4096) {
        ht_heap = (double *)malloc((size_t)n_src * sizeof(double));
        hs_heap = (int64_t *)malloc((size_t)n_src * sizeof(int64_t));
        em_heap = (int64_t *)malloc((size_t)n_src * sizeof(int64_t));
        ht = ht_heap; hs = hs_heap; emitted = em_heap;
    }
    for (i = 0; i < n_src; i++) {
        emitted[i] = 0;
        if (counts[i] > 0) {
            double t0 = first[i] + gaps[i] * 0.0 + d;
            int64_t j = size;
            ht[j] = t0; hs[j] = i; size++;
            while (j > 0) {
                int64_t parent = (j - 1) >> 1;
                if (ht[j] < ht[parent] ||
                    (ht[j] == ht[parent] && hs[j] < hs[parent])) {
                    double tt = ht[j]; ht[j] = ht[parent]; ht[parent] = tt;
                    int64_t ss = hs[j]; hs[j] = hs[parent]; hs[parent] = ss;
                    j = parent;
                } else break;
            }
        }
    }
    for (out = 0; out < m; out++) {
        double t = ht[0];
        int64_t src = hs[0], j = 0;
        out_t[out] = t;
        out_src[out] = src;
        out_assoc[out] = assoc[src];
        emitted[src]++;
        if (emitted[src] < counts[src]) {
            ht[0] = first[src] + gaps[src] * (double)emitted[src] + d;
            hs[0] = src;
        } else {
            size--;
            ht[0] = ht[size];
            hs[0] = hs[size];
        }
        for (;;) {
            int64_t left = 2 * j + 1, right, small;
            if (left >= size) break;
            right = left + 1;
            small = left;
            if (right < size && (ht[right] < ht[left] ||
                (ht[right] == ht[left] && hs[right] < hs[left]))) small = right;
            if (ht[small] < ht[j] ||
                (ht[small] == ht[j] && hs[small] < hs[j])) {
                double tt = ht[j]; ht[j] = ht[small]; ht[small] = tt;
                int64_t ss = hs[j]; hs[j] = hs[small]; hs[small] = ss;
                j = small;
            } else break;
        }
    }
    if (ht_heap) { free(ht_heap); free(hs_heap); free(em_heap); }
    return m;
}

int64_t k_pacing_plan(int64_t n, double *next_emit, double *paused,
    uint8_t *active, double *remaining, double *gaps, double until,
    double *first, int64_t *counts)
{
    int64_t i, total = 0;
    for (i = 0; i < n; i++) {
        double f = next_emit[i];
        int64_t c = 0;
        if (paused[i] > f) f = paused[i];
        first[i] = f;
        if (active[i] != 0 && f <= until) {
            double cf = floor((until - f) / gaps[i]) + 1.0;
            if (remaining[i] < cf) cf = remaining[i];
            c = (int64_t)cf;
        }
        counts[i] = c;
        total += c;
    }
    return total;
}

int64_t k_pacing_commit(int64_t n, int64_t m_committed, int64_t *srcs,
    double *first, double *gaps, int64_t *counts, int64_t any_finite,
    double *next_emit, double *remaining, uint8_t *active,
    int64_t *frames_acc, int64_t *comm, int64_t *fin_idx, double *fin_t)
{
    int64_t i, k, n_fin = 0;
    for (i = 0; i < n; i++) comm[i] = 0;
    for (k = 0; k < m_committed; k++) comm[srcs[k]]++;
    for (i = 0; i < n; i++) {
        int64_t c = comm[i];
        frames_acc[i] += c;
        if (c > 0) {
            next_emit[i] = first[i] + gaps[i] * (double)c;
            if (any_finite != 0) {
                remaining[i] -= (double)c;
                if (remaining[i] <= 0.0) {
                    active[i] = 0;
                    fin_idx[n_fin] = i;
                    fin_t[n_fin] = first[i] + gaps[i] * ((double)c - 1.0);
                    n_fin++;
                }
            }
        } else if (counts[i] > 0) {
            next_emit[i] = first[i];
        }
    }
    return n_fin;
}

void k_owed_repay(int64_t n, double *owed, double *next_emit,
    double *rates, double until, double nxt)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        double ne = next_emit[i];
        if (ne > until) {
            double t = ne - owed[i] / rates[i];
            if (t < nxt) t = nxt;
            owed[i] -= (ne - t) * rates[i];
            next_emit[i] = t;
        }
    }
}

void k_packet_plan(int64_t m, double *times, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, int64_t n_res,
    double next_free, int64_t inflight, double frozen_until,
    double pause_rearm_at, double pause_horizon,
    double *starts, double *completions, double *q_bits,
    double *out_d, int64_t *out_i)
{
    int64_t total = n_res + m, i, j, p = 0;
    double c0 = inflight != 0 ? next_free : t_start;
    double hull = -INFINITY;
    double pause_at = NAN, t_commit = t_end, new_rearm = pause_rearm_at;
    int64_t needs_scalar = 0, m_eff = m;
    if (frozen_until > c0) c0 = frozen_until;

    for (i = 0; i < total; i++) {
        double a_i = i < n_res ? t_start : times[i - n_res];
        double term = a_i - ssvc * (double)i;
        double base;
        if (term > hull) hull = term;
        base = c0 > hull ? c0 : hull;
        completions[i] = ssvc * (double)(i + 1) + base;
        starts[i] = completions[i] - ssvc;
    }
    for (j = 0; j < m; j++) {
        double t_j = times[j];
        int64_t g = n_res + j, sb;
        double q;
        while (p < total && starts[p] <= t_j) p++;
        sb = p < g ? p : g;
        q = L * (double)((g + 1) - sb);
        q_bits[j] = q;
        if (q > B) { needs_scalar = 1; break; }
    }
    if (needs_scalar == 0 && q_sc == q_sc) {
        for (j = 0; j < m; j++) {
            if (q_bits[j] > q_sc && times[j] >= pause_rearm_at) {
                double limit;
                int64_t lo;
                pause_at = times[j];
                new_rearm = pause_at;
                limit = pause_at + pause_horizon;
                if (t_end < limit) limit = t_end;
                lo = bisect_right(times, m, limit);
                m_eff = lo > j + 1 ? lo : j + 1;
                t_commit = limit;
                break;
            }
        }
    }
    out_i[0] = needs_scalar;
    out_i[1] = m_eff;
    out_i[2] = n_res + m_eff;
    out_d[0] = pause_at;
    out_d[1] = t_commit;
    out_d[2] = new_rearm;
}

static double quant_fb(double sigma, double sigma_unit, double full_scale) {
    double fb = round_half_even(sigma / sigma_unit);
    if (fb < -full_scale) fb = -full_scale;
    else if (fb > full_scale - 1.0) fb = full_scale - 1.0;
    return fb;
}

void k_packet_commit(int64_t m_eff, int64_t n_res, double *times,
    int64_t *srcs, uint8_t *assoc, double *q_bits, double *starts,
    double *completions, double t_start, double t_commit,
    int64_t prev_inflight, double prev_next_free, double *uniforms,
    int64_t use_rng, double pm, int64_t interval, int64_t since,
    double q_prev, double q0, double w, int64_t pos_only,
    int64_t req_assoc, double sigma_unit, double full_scale,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_qoff,
    double *msg_dq, double *msg_fb, double *samp_t, double *samp_sigma,
    double *out_d, int64_t *out_i)
{
    int64_t total_eff = n_res + m_eff;
    int64_t n_msg = 0, n_samp = 0, neg = 0, pos = 0, j;
    int64_t delivered, n_started, inflight;
    double prev = q_prev, next_free;
    for (j = 0; j < m_eff; j++) {
        int sampled, negative, positive;
        double qs, dq, sigma;
        if (use_rng != 0) sampled = uniforms[j] < pm;
        else sampled = (since + (j + 1)) % interval == 0;
        if (!sampled) continue;
        qs = q_bits[j];
        dq = qs - prev;
        sigma = (q0 - qs) - w * dq;
        prev = qs;
        samp_t[n_samp] = times[j];
        samp_sigma[n_samp] = sigma;
        n_samp++;
        negative = sigma < 0.0;
        positive = sigma > 0.0 && (qs < q0 || pos_only == 0)
                   && (req_assoc == 0 || assoc[j] != 0);
        if (negative) neg++;
        if (positive) pos++;
        if (negative || positive) {
            msg_t[n_msg] = times[j];
            msg_src[n_msg] = srcs[j];
            msg_sigma[n_msg] = sigma;
            msg_qoff[n_msg] = q0 - qs;
            msg_dq[n_msg] = dq;
            if (sigma_unit == sigma_unit)
                msg_fb[n_msg] = quant_fb(sigma, sigma_unit, full_scale);
            else
                msg_fb[n_msg] = sigma;
            n_msg++;
        }
    }
    if (use_rng == 0) since = (since + m_eff) % interval;

    delivered = bisect_right(completions, total_eff, t_commit);
    if (prev_inflight != 0 && t_start < prev_next_free
        && prev_next_free <= t_commit) delivered++;
    n_started = bisect_right(starts, total_eff, t_commit);

    next_free = prev_next_free;
    inflight = prev_inflight;
    if (n_started) {
        next_free = completions[n_started - 1];
        inflight = next_free > t_commit ? 1 : 0;
    } else if (prev_inflight != 0 && prev_next_free <= t_commit) {
        inflight = 0;
    }
    out_i[0] = n_msg;
    out_i[1] = n_samp;
    out_i[2] = neg;
    out_i[3] = pos;
    out_i[4] = delivered;
    out_i[5] = n_started;
    out_i[6] = total_eff - n_started;
    out_i[7] = inflight;
    out_i[8] = since;
    out_d[0] = next_free;
    out_d[1] = prev;
}

void k_packet_scalar(int64_t m, double *times, int64_t *srcs,
    uint8_t *assoc, double *uniforms, int64_t use_rng, double pm,
    int64_t interval, int64_t since, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, double q0, double w,
    int64_t pos_only, int64_t req_assoc, double sigma_unit,
    double full_scale, int64_t backlog, double next_free0,
    int64_t inflight, double frozen_until, double pause_rearm_at,
    double pause_duration, double pause_horizon, double q_prev,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_qoff,
    double *msg_dq, double *msg_fb, double *samp_t, double *samp_sigma,
    double *drop_t, int64_t *drop_src, double *acc_arrivals,
    double *starts_out, double *pause_ts, double *out_d, int64_t *out_i)
{
    int64_t prev_inflight = inflight;
    double prev_next_free = next_free0;
    double next_free = inflight != 0 ? next_free0 : -INFINITY;
    int64_t any_started = 0, n_acc = 0, n_starts = 0;
    int64_t n_msg = 0, n_samp = 0, n_drop = 0, neg = 0, pos = 0;
    int64_t committed = 0, j, i, delivered = 0;
    int64_t out_inflight, n_pause = 0;
    double pause_at = NAN, pause_limit = INFINITY, t_commit = t_end;
    double q_last = q_prev, out_next_free;
    if (t_start > next_free) next_free = t_start;
    if (frozen_until > next_free) next_free = frozen_until;
    for (i = 0; i < backlog; i++) acc_arrivals[n_acc++] = t_start;

    for (j = 0; j < m; j++) {
        double a = times[j], occ, q_now;
        int sampled, accepted;
        if (a > pause_limit) break;
        while (backlog > 0 && next_free < a) {
            starts_out[n_starts++] = next_free;
            next_free += ssvc;
            backlog--;
            any_started = 1;
        }
        if (use_rng != 0) sampled = uniforms[j] < pm;
        else {
            since++;
            sampled = since >= interval;
            if (sampled) since = 0;
        }
        occ = (double)backlog * L;
        accepted = occ + L <= B;
        if (accepted) {
            acc_arrivals[n_acc++] = a;
            if (backlog == 0 && next_free <= a) {
                starts_out[n_starts++] = a;
                next_free = a + ssvc;
                any_started = 1;
            } else backlog++;
            q_now = occ + L;
        } else {
            drop_t[n_drop] = a;
            drop_src[n_drop] = srcs[j];
            n_drop++;
            q_now = occ;
        }
        if (sampled) {
            double dq = q_now - q_last, sigma;
            int emit = 0;
            q_last = q_now;
            sigma = (q0 - q_now) - w * dq;
            samp_t[n_samp] = a;
            samp_sigma[n_samp] = sigma;
            n_samp++;
            if (sigma < 0.0) { neg++; emit = 1; }
            else if (sigma > 0.0 && (q_now < q0 || pos_only == 0)
                     && (req_assoc == 0 || assoc[j] != 0)) { pos++; emit = 1; }
            if (emit) {
                msg_t[n_msg] = a;
                msg_src[n_msg] = srcs[j];
                msg_sigma[n_msg] = sigma;
                msg_qoff[n_msg] = q0 - q_now;
                msg_dq[n_msg] = dq;
                if (sigma_unit == sigma_unit)
                    msg_fb[n_msg] = quant_fb(sigma, sigma_unit, full_scale);
                else msg_fb[n_msg] = sigma;
                n_msg++;
            }
        }
        committed++;
        if (q_sc == q_sc && q_now > q_sc && a >= pause_rearm_at) {
            pause_at = a;
            pause_rearm_at = a + pause_duration;
            pause_ts[n_pause++] = a;
            pause_limit = a + pause_horizon;
            if (t_end < pause_limit) pause_limit = t_end;
            t_commit = pause_limit;
        }
    }
    while (backlog > 0 && next_free <= t_commit) {
        starts_out[n_starts++] = next_free;
        next_free += ssvc;
        backlog--;
        any_started = 1;
    }
    for (i = 0; i < n_starts; i++) {
        if (starts_out[i] + ssvc <= t_commit) delivered++;
        else break;
    }
    if (prev_inflight != 0 && t_start < prev_next_free
        && prev_next_free <= t_commit) delivered++;

    out_next_free = next_free0;
    out_inflight = prev_inflight;
    if (any_started != 0) {
        out_next_free = next_free;
        out_inflight = next_free > t_commit ? 1 : 0;
    } else if (prev_inflight != 0 && prev_next_free <= t_commit) {
        out_inflight = 0;
    }
    out_i[0] = committed;
    out_i[1] = n_msg;
    out_i[2] = n_samp;
    out_i[3] = n_drop;
    out_i[4] = delivered;
    out_i[5] = backlog;
    out_i[6] = out_inflight;
    out_i[7] = since;
    out_i[8] = n_starts;
    out_i[9] = n_acc;
    out_i[10] = neg;
    out_i[11] = pos;
    out_i[12] = any_started;
    out_i[13] = n_pause;
    out_d[0] = pause_at;
    out_d[1] = t_commit;
    out_d[2] = out_next_free;
    out_d[3] = q_last;
    out_d[4] = pause_rearm_at;
}

void k_apply_messages(int64_t n, double *msg_t, int64_t *msg_src,
    double *msg_fb, double *msg_sigma, int64_t mode, double gi, double gd,
    double ru, double max_dt, double d, double t_commit,
    double *rate, double *last_update, uint8_t *assoc8, int64_t *updates,
    double *min_rate, double *line_rate, double *owed, double *out_d)
{
    double total_rate = out_d[0];
    int64_t k;
    for (k = 0; k < n; k++) {
        int64_t i = msg_src[k];
        double now = msg_t[k] + d;
        double r0 = rate[i], r = r0, fb_sign;
        if (mode == 0) {
            double fb = msg_fb[k];
            if (fb > 0.0) r = r + gi * ru * fb;
            else if (fb < 0.0) {
                double factor = 1.0 + gd * fb;
                if (factor < 0.0) factor = 0.0;
                r = r * factor;
            }
        } else {
            double sigma = msg_sigma[k];
            double lu = last_update[i];
            double dt = lu != lu ? 0.0 : now - lu;
            if (max_dt >= 0.0 && dt > max_dt) dt = max_dt;
            last_update[i] = now;
            if (sigma > 0.0) r = r + gi * ru * sigma * dt;
            else if (sigma < 0.0) {
                if (mode == 2) r = r * exp(gd * sigma * dt);
                else {
                    double factor = 1.0 + gd * sigma * dt;
                    if (factor < 0.0) factor = 0.0;
                    r = r * factor;
                }
            }
        }
        if (r < min_rate[i]) r = min_rate[i];
        if (r > line_rate[i]) r = line_rate[i];
        rate[i] = r;
        updates[i]++;
        fb_sign = mode == 0 ? msg_fb[k] : msg_sigma[k];
        if (fb_sign < 0.0) assoc8[i] = 1;
        else if (r >= line_rate[i]) assoc8[i] = 0;
        if (r != r0) {
            double delta = r - r0;
            double lag = t_commit - now;
            if (lag < 0.0) lag = 0.0;
            owed[i] += delta * lag;
            total_rate += delta;
        }
    }
    out_d[0] = total_rate;
}
"""

_FLUID = r"""
/* ---- switched-fluid row integrator ------------------------------------- */

typedef struct {
    double a, b, cap, k, q0, x_full, x_empty, conv_rtol, t_max;
    int64_t linear_dec, physical, max_switches, ev_cap, m;
    double *ev_t; int8_t *ev_kind; double *ev_x, *ev_y;
    int64_t overflow;
} fparams;

typedef struct {
    double x, y;
    int dec, alive, pinned, rsn;
    double pin_t, unpin_t;
    double pin_y;
    int64_t sw_count, n_ev, dead_step;
    double te;
    double xe_final, ye_final;
} frow;

static void record(fparams *p, frow *rs, int64_t r,
    double t, int8_t kind, double xv, double yv)
{
    if (rs->n_ev < p->ev_cap) {
        int64_t base = r * p->ev_cap + rs->n_ev;
        p->ev_t[base] = t;
        p->ev_kind[base] = kind;
        p->ev_x[base] = xv;
        p->ev_y[base] = yv;
        rs->n_ev++;
    } else p->overflow = 1;
}

static void refine(fparams *p, double x0, double y0, int dec,
    double h, double x1, double y1, double alpha, double beta, double gamma,
    double *th_out, double *xt_out, double *yt_out)
{
    double A = p->a, B = p->b, C = p->cap;
    double K = p->k;
    double s0 = x0 + K * y0;
    double coef0 = dec ? (p->linear_dec ? B * C : B * (y0 + C)) : A;
    double f0x = y0, f0y = -coef0 * s0;
    double s1 = x1 + K * y1;
    double coef1 = dec ? (p->linear_dec ? B * C : B * (y1 + C)) : A;
    double f1x = y1, f1y = -coef1 * s1;
    double u0 = alpha * x0 + beta * y0 + gamma;
    double u1 = alpha * x1 + beta * y1 + gamma;
    double d0 = h * (alpha * f0x + beta * f0y);
    double d1 = h * (alpha * f1x + beta * f1y);
    double c0 = u0, c1 = d0;
    double c2 = 3.0 * (u1 - u0) - 2.0 * d0 - d1;
    double c3 = 2.0 * (u0 - u1) + d0 + d1;
    double lo = 0.0, hi = 1.0, g_lo = u0;
    double b2 = 2.0 * c2, b3 = 3.0 * c3;
    double denom = u0 - u1, theta, t2, om, h00, h10, h01, h11;
    int it;
    theta = denom == 0.0 ? NAN : u0 / denom;
    if (!isfinite(theta)) theta = 0.5;
    else if (theta < 0.0) theta = 0.0;
    else if (theta > 1.0) theta = 1.0;
    for (it = 0; it < 16; it++) {
        double g = ((c3 * theta + c2) * theta + c1) * theta + c0;
        double slope, newton;
        if (g_lo * g > 0.0) { lo = theta; g_lo = g; }
        else hi = theta;
        slope = (b3 * theta + b2) * theta + c1;
        newton = slope != 0.0 ? theta - g / slope : INFINITY;
        if (newton > lo && newton < hi) theta = newton;
        else theta = 0.5 * (lo + hi);
    }
    t2 = theta * theta;
    om = 1.0 - theta;
    h00 = (1.0 + 2.0 * theta) * om * om;
    h10 = theta * om * om;
    h01 = t2 * (3.0 - 2.0 * theta);
    h11 = t2 * (theta - 1.0);
    *th_out = theta;
    *xt_out = h00 * x0 + h10 * (h * f0x) + h01 * x1 + h11 * (h * f1x);
    *yt_out = h00 * y0 + h10 * (h * f0y) + h01 * y1 + h11 * (h * f1y);
}

static void advance(fparams *p, frow *rs, int64_t r,
    double t0, double h_in, int64_t step_i)
{
    double t0d = t0, h = h_in;
    double A = p->a, B = p->b, C = p->cap;
    double K = p->k, Q0 = p->q0;
    double XF = p->x_full, XE = p->x_empty;
    for (;;) {
        double xx0 = rs->x, yy0 = rs->y;
        double rsign = rs->dec ? 1.0 : -1.0;
        double hr = h;
        double s_, coef, k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, ax, ay;
        double sixth, x1, y1, s1, line_tol, theta, xe, ye;
        double t_ev;
        int term = 0;
        s_ = xx0 + K * yy0;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (yy0 + C)) : A;
        k1x = yy0; k1y = -coef * s_;
        ax = xx0 + 0.5 * hr * k1x; ay = yy0 + 0.5 * hr * k1y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k2x = ay; k2y = -coef * s_;
        ax = xx0 + 0.5 * hr * k2x; ay = yy0 + 0.5 * hr * k2y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k3x = ay; k3y = -coef * s_;
        ax = xx0 + hr * k3x; ay = yy0 + hr * k3y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k4x = ay; k4y = -coef * s_;
        sixth = hr / 6.0;
        x1 = xx0 + sixth * (k1x + 2.0 * (k2x + k3x) + k4x);
        y1 = yy0 + sixth * (k1y + 2.0 * (k2y + k3y) + k4y);

        s1 = x1 + K * y1;
        line_tol = 1e-12 * (fabs(x1) + K * fabs(y1) + Q0);
        theta = 1.0;
        xe = x1; ye = y1;
        if (s1 * rsign < -line_tol) {
            double th, xt, yt;
            refine(p, xx0, yy0, rs->dec, hr, x1, y1,
                   1.0, K, 0.0, &th, &xt, &yt);
            if (th < theta) { theta = th; xe = xt; ye = yt; term = 1; }
        }
        if (p->physical) {
            if (xx0 < XF && x1 >= XF) {
                double th, xt, yt;
                refine(p, xx0, yy0, rs->dec, hr, x1, y1,
                       1.0, 0.0, -XF, &th, &xt, &yt);
                if (th < theta) { theta = th; xe = xt; ye = yt; term = 2; }
            }
            if (xx0 > XE && x1 <= XE) {
                double th, xt, yt;
                refine(p, xx0, yy0, rs->dec, hr, x1, y1,
                       1.0, 0.0, -XE, &th, &xt, &yt);
                if (th < theta) { theta = th; xe = xt; ye = yt; term = 3; }
            }
        }
        t_ev = t0d + theta * h;

        if (yy0 * ye < 0.0) {
            double hk = hr * theta, th, xt, yt;
            refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                   0.0, 1.0, 0.0, &th, &xt, &yt);
            record(p, rs, r, t0d + th * hk, 1, xt, yt);
        }
        if (!p->physical) {
            if (xx0 < XF && xe >= XF) {
                double hk = hr * theta, th, xt, yt;
                refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                       1.0, 0.0, -XF, &th, &xt, &yt);
                record(p, rs, r, t0d + th * hk, 2, xt, yt);
            }
            if (xx0 > XE && xe <= XE) {
                double hk = hr * theta, th, xt, yt;
                refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                       1.0, 0.0, -XE, &th, &xt, &yt);
                record(p, rs, r, t0d + th * hk, 3, xt, yt);
            }
        }

        if (term == 0) { rs->x = xe; rs->y = ye; return; }
        if (term == 1) {
            int over, conv;
            record(p, rs, r, t_ev, 0, xe, ye);
            rs->sw_count++;
            over = rs->sw_count > p->max_switches;
            conv = !over
                && fabs(xe) / p->q0 <= p->conv_rtol
                && fabs(ye) / p->cap <= p->conv_rtol;
            if (over || conv) {
                rs->alive = 0;
                rs->dead_step = step_i + 1;
                rs->te = t_ev;
                rs->xe_final = xe; rs->ye_final = ye;
                rs->x = xe; rs->y = ye;
                rs->rsn = over ? 3 : 1; /* max_switches : converged */
                return;
            }
            rs->dec = ye > 0.0;
            rs->x = xe; rs->y = ye;
            t0d = t_ev;
            h = h * (1.0 - theta);
            continue;
        }
        {
            int is_full = term == 2;
            double duration, t_step_end;
            record(p, rs, r, t_ev, is_full ? 2 : 3,
                   is_full ? XF : XE, ye);
            rs->pinned = is_full ? 1 : 2;
            rs->pin_t = t_ev;
            rs->pin_y = ye;
            if (is_full)
                duration = log((ye + p->cap) / p->cap)
                           / (p->b * p->x_full);
            else
                duration = -ye / (p->a * p->q0);
            rs->unpin_t = t_ev + duration;
            if (p->t_max < rs->unpin_t) rs->unpin_t = p->t_max;
            rs->x = is_full ? XF : XE;
            rs->y = ye;
            t_step_end = t0d + h;
            if (rs->unpin_t <= t_step_end) {
                double t_up = rs->unpin_t;
                double x_pin = is_full ? XF : XE;
                rs->x = x_pin; rs->y = 0.0;
                rs->pinned = 0;
                rs->unpin_t = INFINITY;
                rs->dec = x_pin > 0.0;
                t0d = t_up;
                h = t_step_end - t_up;
                continue;
            }
            return;
        }
    }
}

void k_fluid(int64_t m, int64_t n_steps, double *t_grid,
    double *x0, double *y0, double a, double b, double cap, double kk,
    double q0, double x_full, double x_empty, int64_t linear_dec,
    int64_t physical, int64_t max_switches, double conv_rtol,
    double t_max, double *xs, double *ys, int8_t *reason,
    int64_t *switches, double *t_end, double *x_end, double *y_end,
    int64_t ev_cap, int64_t *n_events, double *ev_t, int8_t *ev_kind,
    double *ev_x, double *ev_y, int64_t *out_i)
{
    fparams p;
    int64_t r, last = 0;
    p.a = a; p.b = b; p.cap = cap; p.k = kk; p.q0 = q0;
    p.x_full = x_full; p.x_empty = x_empty;
    p.conv_rtol = conv_rtol; p.t_max = t_max;
    p.linear_dec = linear_dec; p.physical = physical;
    p.max_switches = max_switches; p.ev_cap = ev_cap; p.m = m;
    p.ev_t = ev_t; p.ev_kind = ev_kind; p.ev_x = ev_x; p.ev_y = ev_y;
    p.overflow = 0;

    for (r = 0; r < m; r++) {
        frow rs;
        double K = kk, XF = x_full, XE = x_empty;
        double s;
        int64_t i, i2;
        rs.x = x0[r]; rs.y = y0[r];
        s = rs.x + K * rs.y;
        rs.dec = (s > 0.0)
                 || (s == 0.0 && rs.y > 0.0);
        rs.alive = 1; rs.pinned = 0; rs.rsn = 0;
        rs.pin_t = 0.0; rs.pin_y = 0.0; rs.unpin_t = INFINITY;
        rs.sw_count = 0; rs.n_ev = 0;
        rs.te = 0.0; rs.xe_final = rs.x; rs.ye_final = rs.y;
        rs.dead_step = n_steps;

        if (fabs(rs.x) / q0 <= conv_rtol
            && fabs(rs.y) / cap <= conv_rtol) {
            rs.alive = 0;
            rs.rsn = 1;
            rs.dead_step = 0;
        } else if (physical && rs.x <= XE && rs.y < 0.0) {
            double duration;
            record(&p, &rs, r, 0.0, 3, XE, rs.y);
            rs.pinned = 2;
            rs.pin_t = 0.0;
            rs.pin_y = rs.y;
            duration = -rs.y / (a * q0);
            rs.unpin_t = duration < t_max ? duration : t_max;
            rs.x = XE;
        }
        xs[r] = rs.x;
        ys[r] = rs.y;

        for (i = 0; i < n_steps; i++) {
            double t0 = t_grid[i], t1 = t_grid[i + 1];
            if (rs.alive && rs.pinned == 0)
                advance(&p, &rs, r, t0, t1 - t0, i);
            if (physical && rs.alive && rs.pinned != 0
                && rs.unpin_t <= t1 && rs.unpin_t < t_max) {
                double x_pin = rs.pinned == 1 ? XF : XE;
                double t_up = rs.unpin_t;
                rs.x = x_pin; rs.y = 0.0;
                rs.pinned = 0;
                rs.unpin_t = INFINITY;
                rs.dec = x_pin > 0.0;
                advance(&p, &rs, r, t_up, t1 - t_up, i);
            }
            if (physical && rs.alive && rs.pinned != 0) {
                double dt = t1 - rs.pin_t;
                if (rs.pinned == 1) {
                    rs.x = XF;
                    rs.y = ((rs.pin_y + cap)
                           * exp(-b * x_full * dt) - cap);
                } else {
                    rs.x = XE;
                    rs.y = (rs.pin_y + a * q0 * dt);
                }
            }
            xs[(i + 1) * m + r] = rs.x;
            ys[(i + 1) * m + r] = rs.y;
        }
        if (rs.alive) {
            int conv = rs.pinned == 0
                && fabs(rs.x) / q0 <= conv_rtol
                && fabs(rs.y) / cap <= conv_rtol;
            rs.rsn = conv ? 1 : 2;
            rs.te = t_max;
            rs.xe_final = rs.x;
            rs.ye_final = rs.y;
            rs.dead_step = n_steps;
        }
        reason[r] = (int8_t)rs.rsn;
        switches[r] = rs.sw_count;
        t_end[r] = rs.te;
        x_end[r] = rs.xe_final;
        y_end[r] = rs.ye_final;
        n_events[r] = rs.n_ev;
        for (i2 = rs.dead_step; i2 < n_steps; i2++) {
            xs[(i2 + 1) * m + r] = rs.x;
            ys[(i2 + 1) * m + r] = rs.y;
        }
        if (rs.dead_step > last) last = rs.dead_step;
    }
    if (last < 1) last = 1;
    out_i[0] = last;
    out_i[1] = p.overflow;
}
"""

SOURCE = "#include <stdlib.h>\n" + _COMMON + _FLUID


def _build_root() -> Path:
    env = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "_build"


def _content_hash() -> str:
    payload = (CDEF + SOURCE).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def load_cffi_kernels():
    """Compile (once, content-addressed) and load the C kernels.

    Returns the loaded extension module's ``lib`` / ``ffi`` pair, or
    raises (``ImportError``, compiler errors, …) — callers treat any
    exception as "backend unavailable" and fall through to numpy.
    """
    global build_seconds
    import cffi

    tag = _content_hash()
    modname = f"_repro_kernels_{tag}"
    root = _build_root()
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = root / f"{modname}{ext}"

    started = time.perf_counter()  # repro-lint: disable=wall-clock -- one-off C build timing
    if not target.exists():
        root.mkdir(parents=True, exist_ok=True)
        scratch = root / f".tmp-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            ffi = cffi.FFI()
            ffi.cdef(CDEF)
            ffi.set_source(modname, SOURCE,
                           extra_compile_args=["-O2", "-fno-math-errno"])
            built = Path(ffi.compile(tmpdir=str(scratch), verbose=False))
            os.replace(built, target)  # atomic: concurrent builders race safely
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    spec = importlib.util.spec_from_file_location(modname, target)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load kernel extension {target}")
    module = importlib.util.module_from_spec(spec)
    # register so repeated loads (and cffi internals) reuse the module
    sys.modules.setdefault(modname, module)
    spec.loader.exec_module(module)
    build_seconds += time.perf_counter() - started  # repro-lint: disable=wall-clock -- one-off C build timing
    return module.lib, module.ffi
