/*
 * SWAP-candidate scorer of the flat routing kernel (connected coupling maps).
 *
 * One call scores every candidate edge of one routing stall and writes the
 * ids of the tied-best edges, in ascending edge-id order, to ``best``.  The
 * caller then makes the single ``rng.integers(count)`` draw, so the random
 * stream is consumed exactly as by the object-graph router.
 *
 * Candidates are the coupling edges with at least one endpoint on a stalled
 * front gate's physical qubit.  Each candidate's front and lookahead window
 * sums are recomputed from scratch under the swap: hop distances are
 * integers, so the sums are exact and equal the object router's
 * float-accumulated sums.  The float score and the tolerance tie-break are
 * the object router's expressions, term for term; build with
 * ``-ffp-contract=off`` and without ``-ffast-math`` so no step is fused or
 * reassociated.
 *
 * Returns the number of tied-best edges, -1 when no edge is a candidate,
 * or -2 when the scratch allocation fails.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Sum of the hop distances of ``count`` (left, right) physical pairs,
 * with qubits ``edge_a`` and ``edge_b`` exchanged. */
static int64_t window_sum(const int64_t *dist, int32_t num_qubits,
                          const int32_t *pairs, int32_t count,
                          int32_t edge_a, int32_t edge_b)
{
    int64_t total = 0;
    for (int32_t i = 0; i < 2 * count; i += 2) {
        int32_t left = pairs[i];
        int32_t right = pairs[i + 1];
        left = left == edge_a ? edge_b : left == edge_b ? edge_a : left;
        right = right == edge_a ? edge_b : right == edge_b ? edge_a : right;
        total += dist[(int64_t)left * num_qubits + right];
    }
    return total;
}

int mirage_choose_swap(int32_t num_qubits, const int64_t *dist,
                       int32_t num_edges, const int64_t *edges_a,
                       const int64_t *edges_b, const int32_t *qubit0,
                       const int32_t *qubit1, const int32_t *v2p,
                       const int32_t *front, int32_t num_front,
                       const int32_t *extended, int32_t num_extended,
                       const double *decay, double extended_set_weight,
                       int32_t *best)
{
    /* Physical (left, right) pairs of the front, then of the lookahead
     * window, then a per-qubit mark of the stalled front's qubits. */
    int32_t num_pairs = num_front + num_extended;
    int32_t *pairs = calloc((size_t)2 * num_pairs + num_qubits, sizeof(int32_t));
    if (pairs == NULL)
        return -2;
    int32_t *stalled = pairs + 2 * num_pairs;
    for (int32_t i = 0; i < num_pairs; i++) {
        int32_t node = i < num_front ? front[i] : extended[i - num_front];
        pairs[2 * i] = v2p[qubit0[node]];
        pairs[2 * i + 1] = v2p[qubit1[node]];
        if (i < num_front) {
            stalled[pairs[2 * i]] = 1;
            stalled[pairs[2 * i + 1]] = 1;
        }
    }

    int candidates = 0;
    int count = 0;
    double best_score = INFINITY;
    for (int32_t edge = 0; edge < num_edges; edge++) {
        int32_t edge_a = (int32_t)edges_a[edge];
        int32_t edge_b = (int32_t)edges_b[edge];
        if (!stalled[edge_a] && !stalled[edge_b])
            continue;
        candidates++;
        int64_t front_sum = window_sum(dist, num_qubits, pairs, num_front,
                                       edge_a, edge_b);
        int64_t extended_sum = window_sum(dist, num_qubits,
                                          pairs + 2 * num_front, num_extended,
                                          edge_a, edge_b);
        double score = 0.0;
        if (num_front)
            score += (double)front_sum / (double)num_front;
        if (num_extended)
            score += extended_set_weight * (double)extended_sum
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
    free(pairs);
    return candidates ? count : -1;
}
