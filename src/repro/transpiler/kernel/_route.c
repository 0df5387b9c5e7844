/*
 * The flat routing loop, whole: one call routes one lowered circuit
 * (``IntDAG``) over one connected coupling map (``NeighborTable``).
 *
 * It is the same loop as the Python fallback in ``route.py``, step for
 * step, so fixed-seed outputs are byte-identical to it and to the object
 * router:
 *
 *   front advance   CSR successors and in-degrees; ``KIND_FREE`` nodes
 *                   always execute, ``KIND_CHECK2`` nodes execute when
 *                   their physical qubits are adjacent, ``KIND_REJECT``
 *                   stops the run;
 *   lookahead       breadth-first over successors in program order, the
 *                   same visit order, dedup and early exit as
 *                   ``KernelState.extended_ids``;
 *   SWAP scoring    exact int64 window sums, the object router's float
 *                   score and its ``1e-12`` tie-break;
 *   decay           bumped per SWAP, reset after an executing sweep and
 *                   every ``decay_reset_interval`` SWAPs;
 *   tie-break draw  numpy's ``Generator.integers(n)`` (Lemire's bounded
 *                   draw over ``next_uint32``) on the caller's own bit
 *                   generator, so the random stream is consumed exactly
 *                   as by ``rng.integers``;
 *   mirror decision MIRAGE's Algorithm 2 over the per-gate costs of the
 *                   ``MirrorTable`` and the routing terms of the gate's
 *                   lookahead window (``aggression < 0`` means SABRE).
 *
 * The output is an int32 event stream: ``2 * node + mirrored`` for an
 * executed node, ``-(1 + a * num_qubits + b)`` for a SWAP on edge (a, b).
 * The stream buffer is allocated here and grown as needed; the caller
 * copies it out and releases it with ``free``.
 *
 * Build with ``-ffp-contract=off`` and without ``-ffast-math`` so no float
 * expression is fused or reassociated.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's ``bitgen_t`` (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* Node kinds, as in intdag.py. */
enum { KIND_CHECK2 = 0, KIND_FREE = 1, KIND_REJECT = 2 };

/* Status codes, mapped to exceptions by native.py. */
enum {
    ROUTE_OK = 0,
    ROUTE_REJECT = 1,        /* a gate on more than two qubits */
    ROUTE_STALLED = 2,       /* stall limit exceeded */
    ROUTE_NO_CANDIDATES = 3, /* no coupling edge touches the front */
    ROUTE_NO_MEMORY = 4,
};

typedef struct {
    /* IntDAG */
    int32_t num_nodes;
    int32_t num_virtual;
    const uint8_t *kind;
    const int32_t *qubit0;
    const int32_t *qubit1;
    const int32_t *gate_ids;
    const int64_t *succ_indptr;
    const int32_t *succ_ids;
    const int32_t *indegree;
    /* NeighborTable */
    int32_t num_qubits;
    const int64_t *dist;
    int32_t num_edges;
    const int64_t *edges_a;
    const int64_t *edges_b;
    /* SABRE parameters */
    int32_t extended_set_size;
    double extended_set_weight;
    double decay_delta;
    int64_t decay_reset_interval;
    int64_t stall_limit;
    /* MIRAGE: aggression 0-3, or -1 for no mirror decision */
    int32_t aggression;
    double decomposition_weight;
    const double *cost;
    const double *mirror_cost;
    /* the trial's random stream */
    bitgen_t *rng;
} route_problem;

typedef struct {
    int32_t *events;
    int64_t num_events;
    int64_t swaps;
    int64_t candidates;
    int64_t mirrors;
} route_result;

/* ``Generator.integers(n)`` for 1 <= n < 2**31: numpy's
 * ``buffered_bounded_lemire_uint32``; n == 1 consumes nothing. */
static int64_t bounded_draw(bitgen_t *rng, uint32_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)rng->next_uint32(rng->state) * n;
    uint32_t leftover = (uint32_t)m;
    if (leftover < n) {
        const uint32_t threshold = (UINT32_MAX - (n - 1)) % n;
        while (leftover < threshold) {
            m = (uint64_t)rng->next_uint32(rng->state) * n;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* ``count`` draws, ``out[i]`` from ``Generator.integers(bounds[i])``;
 * lets a caller check the draw against numpy's before trusting it. */
void mirage_draws(bitgen_t *rng, const int32_t *bounds, int32_t count,
                  int64_t *out)
{
    for (int32_t i = 0; i < count; i++)
        out[i] = bounded_draw(rng, (uint32_t)bounds[i]);
}

typedef struct {
    const route_problem *p;
    int32_t *v2p;
    int32_t *p2v;
    /* lookahead breadth-first search */
    uint32_t *seen;
    uint32_t generation;
    int32_t *queue;
    /* event stream */
    int32_t *events;
    int64_t num_events;
    int64_t capacity;
    /* counts */
    int64_t swaps;
    int64_t candidates;
    int64_t mirrors;
} router;

static int push_event(router *r, int32_t event)
{
    if (r->num_events == r->capacity) {
        int64_t capacity = 2 * r->capacity;
        int32_t *grown = realloc(r->events, (size_t)capacity * sizeof(int32_t));
        if (grown == NULL)
            return 0;
        r->events = grown;
        r->capacity = capacity;
    }
    r->events[r->num_events++] = event;
    return 1;
}

static void swap_physical(router *r, int32_t a, int32_t b)
{
    int32_t va = r->p2v[a];
    int32_t vb = r->p2v[b];
    if (va >= 0)
        r->v2p[va] = b;
    if (vb >= 0)
        r->v2p[vb] = a;
    r->p2v[a] = vb;
    r->p2v[b] = va;
}

/* Upcoming two-qubit nodes after ``roots`` (at most ``limit``), written
 * to ``out``; returns their count. */
static int32_t extended_ids(router *r, const int32_t *roots, int32_t num_roots,
                            int32_t *out)
{
    const route_problem *p = r->p;
    int32_t limit = p->extended_set_size;
    uint32_t stamp = ++r->generation;
    int32_t head = 0, tail = 0, count = 0;
    for (int32_t i = 0; i < num_roots; i++) {
        r->seen[roots[i]] = stamp;
        r->queue[tail++] = roots[i];
    }
    while (head < tail && count < limit) {
        int32_t node = r->queue[head++];
        for (int64_t s = p->succ_indptr[node]; s < p->succ_indptr[node + 1]; s++) {
            int32_t successor = p->succ_ids[s];
            if (r->seen[successor] == stamp)
                continue;
            r->seen[successor] = stamp;
            r->queue[tail++] = successor;
            if (p->kind[successor] == KIND_CHECK2) {
                out[count++] = successor;
                if (count >= limit)
                    break;
            }
        }
    }
    return count;
}

static int64_t distance(const route_problem *p, int32_t a, int32_t b)
{
    return p->dist[(int64_t)a * p->num_qubits + b];
}

/* Sum of the hop distances of ``count`` (left, right) physical pairs,
 * with qubits ``edge_a`` and ``edge_b`` exchanged. */
static int64_t window_sum(const route_problem *p, const int32_t *pairs,
                          int32_t count, int32_t edge_a, int32_t edge_b)
{
    int64_t total = 0;
    for (int32_t i = 0; i < 2 * count; i += 2) {
        int32_t left = pairs[i];
        int32_t right = pairs[i + 1];
        left = left == edge_a ? edge_b : left == edge_b ? edge_a : left;
        right = right == edge_a ? edge_b : right == edge_b ? edge_a : right;
        total += distance(p, left, right);
    }
    return total;
}

/* MIRAGE's mirror decision for two-qubit ``node`` on physical (a, b):
 * ``MirageSwap._commit_two_qubit_flat`` and ``accept_mirror``. */
static int accept_mirror(router *r, int32_t node, int32_t a, int32_t b,
                         int32_t *window)
{
    const route_problem *p = r->p;
    if (p->aggression == 0)
        return 0;
    if (p->aggression == 3)
        return 1;
    int32_t count = extended_ids(r, &node, 1, window);
    double current = 0.0, mirrored = 0.0;
    if (count) {
        int64_t base = 0, swapped = 0;
        for (int32_t i = 0; i < count; i++) {
            int32_t left = r->v2p[p->qubit0[window[i]]];
            int32_t right = r->v2p[p->qubit1[window[i]]];
            base += distance(p, left, right);
            left = left == a ? b : left == b ? a : left;
            right = right == a ? b : right == b ? a : right;
            swapped += distance(p, left, right);
        }
        double weight = p->extended_set_weight;
        current = 0.0 + weight * (double)base / (double)count;
        mirrored = 0.0 + weight * (double)swapped / (double)count;
    }
    int32_t gate = p->gate_ids[node];
    double cost_current = p->decomposition_weight * p->cost[gate] + current;
    double cost_trial = p->decomposition_weight * p->mirror_cost[gate] + mirrored;
    if (p->aggression == 1)
        return cost_trial < cost_current - 1e-9;
    return cost_trial <= cost_current + 1e-9;
}

/* One stall's SWAP: score every candidate edge, draw among the tied best.
 * Returns the edge id, or -1 when no edge is a candidate. */
static int32_t choose_swap(router *r, const int32_t *front, int32_t num_front,
                           const int32_t *extended, int32_t num_extended,
                           const double *decay, int32_t *pairs,
                           uint8_t *stalled, int32_t *best)
{
    const route_problem *p = r->p;
    int32_t num_pairs = num_front + num_extended;
    memset(stalled, 0, (size_t)p->num_qubits);
    for (int32_t i = 0; i < num_pairs; i++) {
        int32_t node = i < num_front ? front[i] : extended[i - num_front];
        pairs[2 * i] = r->v2p[p->qubit0[node]];
        pairs[2 * i + 1] = r->v2p[p->qubit1[node]];
        if (i < num_front) {
            stalled[pairs[2 * i]] = 1;
            stalled[pairs[2 * i + 1]] = 1;
        }
    }

    int32_t candidates = 0, count = 0;
    double best_score = INFINITY;
    for (int32_t edge = 0; edge < p->num_edges; edge++) {
        int32_t edge_a = (int32_t)p->edges_a[edge];
        int32_t edge_b = (int32_t)p->edges_b[edge];
        if (!stalled[edge_a] && !stalled[edge_b])
            continue;
        candidates++;
        int64_t front_sum = window_sum(p, pairs, num_front, edge_a, edge_b);
        int64_t extended_sum = window_sum(p, pairs + 2 * num_front,
                                          num_extended, edge_a, edge_b);
        double score = 0.0;
        if (num_front)
            score += (double)front_sum / (double)num_front;
        if (num_extended)
            score += p->extended_set_weight * (double)extended_sum
                     / (double)num_extended;
        double decay_a = decay[edge_a];
        double decay_b = decay[edge_b];
        score = score * (decay_a >= decay_b ? decay_a : decay_b);
        if (score < best_score - 1e-12) {
            best_score = score;
            best[0] = edge;
            count = 1;
        } else if (fabs(score - best_score) <= 1e-12) {
            best[count++] = edge;
        }
    }
    if (!candidates)
        return -1;
    return best[bounded_draw(p->rng, (uint32_t)count)];
}

static void reset_decay(double *decay, int32_t num_qubits)
{
    for (int32_t q = 0; q < num_qubits; q++)
        decay[q] = 1.0;
}

static int route(router *r)
{
    const route_problem *p = r->p;
    int32_t n = p->num_nodes;
    int32_t window = p->extended_set_size;
    /* One block: in-degrees, two front buffers, the lookahead list, the
     * mirror window, the stall's pairs and best edges. */
    int32_t *block = malloc(((size_t)3 * n + 2 * (size_t)window
                             + 2 * ((size_t)n + window) + p->num_edges + 1)
                            * sizeof(int32_t));
    double *decay = malloc((size_t)p->num_qubits * sizeof(double));
    uint8_t *stalled = malloc((size_t)p->num_qubits + 1);
    if (block == NULL || decay == NULL || stalled == NULL) {
        free(block);
        free(decay);
        free(stalled);
        return ROUTE_NO_MEMORY;
    }
    int32_t *indegree = block;
    int32_t *front = indegree + n;
    int32_t *next = front + n;
    int32_t *extended = next + n;
    int32_t *mirror_window = extended + window;
    int32_t *pairs = mirror_window + window;
    int32_t *best = pairs + 2 * ((size_t)n + window);

    memcpy(indegree, p->indegree, (size_t)n * sizeof(int32_t));
    reset_decay(decay, p->num_qubits);
    int decay_dirty = 0;
    int64_t decay_steps = 0, stall_counter = 0;
    int32_t num_extended = -1; /* -1: lookahead not computed for this front */
    int status = ROUTE_OK;

    int32_t num_front = 0;
    for (int32_t i = 0; i < n; i++)
        if (!indegree[i])
            front[num_front++] = i;

    while (num_front) {
        int executed_any = 0;
        int32_t num_next = 0;
        for (int32_t i = 0; i < num_front; i++) {
            int32_t node = front[i];
            uint8_t kind = p->kind[node];
            int32_t event = 2 * node;
            if (kind == KIND_CHECK2) {
                int32_t a = r->v2p[p->qubit0[node]];
                int32_t b = r->v2p[p->qubit1[node]];
                if (distance(p, a, b) != 1) {
                    next[num_next++] = node;
                    continue;
                }
                if (p->aggression >= 0) {
                    r->candidates++;
                    if (accept_mirror(r, node, a, b, mirror_window)) {
                        r->mirrors++;
                        event += 1;
                        swap_physical(r, a, b);
                    }
                }
            } else if (kind != KIND_FREE) {
                status = ROUTE_REJECT;
                goto done;
            }
            if (!push_event(r, event)) {
                status = ROUTE_NO_MEMORY;
                goto done;
            }
            executed_any = 1;
            for (int64_t s = p->succ_indptr[node]; s < p->succ_indptr[node + 1]; s++) {
                int32_t successor = p->succ_ids[s];
                if (!--indegree[successor])
                    next[num_next++] = successor;
            }
        }
        int32_t *swap_buffers = front;
        front = next;
        next = swap_buffers;
        num_front = num_next;
        if (executed_any) {
            if (decay_dirty) {
                reset_decay(decay, p->num_qubits);
                decay_dirty = 0;
            }
            decay_steps = 0;
            stall_counter = 0;
            num_extended = -1;
            continue;
        }
        if (!num_front)
            break;

        /* Stalled: insert the best-scoring SWAP.  The lookahead window
         * depends only on the front and the DAG, so it is recomputed only
         * after a sweep that executed something. */
        if (++stall_counter > p->stall_limit) {
            status = ROUTE_STALLED;
            goto done;
        }
        if (num_extended < 0)
            num_extended = extended_ids(r, front, num_front, extended);
        int32_t edge = choose_swap(r, front, num_front, extended, num_extended,
                                   decay, pairs, stalled, best);
        if (edge < 0) {
            status = ROUTE_NO_CANDIDATES;
            goto done;
        }
        int32_t a = (int32_t)p->edges_a[edge];
        int32_t b = (int32_t)p->edges_b[edge];
        if (!push_event(r, -(1 + a * p->num_qubits + b))) {
            status = ROUTE_NO_MEMORY;
            goto done;
        }
        swap_physical(r, a, b);
        decay[a] += p->decay_delta;
        decay[b] += p->decay_delta;
        decay_dirty = 1;
        if (++decay_steps >= p->decay_reset_interval) {
            reset_decay(decay, p->num_qubits);
            decay_dirty = 0;
            decay_steps = 0;
        }
        r->swaps++;
    }
done:
    free(block);
    free(decay);
    free(stalled);
    return status;
}

/* Route ``problem`` from the layout in ``v2p`` (``num_virtual`` entries,
 * overwritten with the final layout).  On ROUTE_OK, ``result`` holds the
 * event stream (the caller frees ``result->events``) and the counts; on
 * any other status nothing is left to free. */
int mirage_route(const route_problem *problem, int32_t *v2p,
                 route_result *result)
{
    router r = {0};
    r.p = problem;
    r.v2p = v2p;
    r.capacity = (int64_t)problem->num_nodes + problem->num_nodes / 2 + 64;
    r.events = malloc((size_t)r.capacity * sizeof(int32_t));
    r.p2v = malloc((size_t)problem->num_qubits * sizeof(int32_t));
    r.seen = calloc((size_t)problem->num_nodes + 1, sizeof(uint32_t));
    r.queue = malloc(((size_t)problem->num_nodes + 1) * sizeof(int32_t));
    int status = ROUTE_NO_MEMORY;
    if (r.events != NULL && r.p2v != NULL && r.seen != NULL && r.queue != NULL) {
        for (int32_t q = 0; q < problem->num_qubits; q++)
            r.p2v[q] = -1;
        for (int32_t v = 0; v < problem->num_virtual; v++)
            r.p2v[v2p[v]] = v;
        status = route(&r);
    }
    free(r.p2v);
    free(r.seen);
    free(r.queue);
    if (status != ROUTE_OK) {
        free(r.events);
        return status;
    }
    result->events = r.events;
    result->num_events = r.num_events;
    result->swaps = r.swaps;
    result->candidates = r.candidates;
    result->mirrors = r.mirrors;
    return ROUTE_OK;
}
