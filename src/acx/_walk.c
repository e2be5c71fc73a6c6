/*
 * The depth-first walk of acx.complexity over canonical path candidates
 * with lo to q states, compiled.  acx.complexity builds this file into a
 * shared library when it is imported and calls acx_walk through ctypes.
 * The walk is ReferenceSearch of tests/oracles.py line for line, and the
 * tests require the two to agree extension for extension: the same path,
 * the same final q and the same counts.  ReferenceSearch's docstrings give
 * the reasoning behind every cut; the comments here name the places.
 *
 * A set of states is a mask of `words` 64-bit words, ceil(q / 64) of them
 * for the window's q.  The committed transitions are held as
 * labels[p * stride + t], 1 + the letter on the edge p -> t, or 0, and two
 * masks per state: out_any[p], the targets of p, and in_any[t], the
 * sources into t.  Row i of the walk counts is m1 then m2, the states
 * reached by at least one walk of length i from state 0, and by at least
 * two.  Rows are updated in place; a step on a new transition first saves
 * each row it changes on an undo stack, and undoing it copies them back.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t mask_word;

/* the index of the lowest set bit of m, which is not 0 */
static int lowest_bit(mask_word m)
{
#if defined(__GNUC__)
    return __builtin_ctzll(m);
#else
    int bit = 0;
    while (!(m & 1)) {
        m >>= 1;
        bit++;
    }
    return bit;
#endif
}

struct walk {
    const int32_t *letters;
    int32_t n, lo, q, least;
    int32_t stride;         /* the window's q, the row length of labels */
    int32_t words;          /* 64-bit words per mask */
    int32_t *labels;
    mask_word *out_any;     /* out_any + p * words */
    mask_word *in_any;      /* in_any + t * words */
    mask_word *rows;        /* rows + i * 2 * words: m1, then m2 */
    int32_t *path;
    int64_t *counts;
    int32_t *best;
    int found;
    /* saved rows, each its index and then its 2 * words words */
    mask_word *undo;
    size_t undo_len, undo_cap;
};

static int has(const mask_word *m, int32_t s)
{
    return (int)((m[s >> 6] >> (s & 63)) & 1);
}

static int meets(const mask_word *a, const mask_word *b, int32_t words)
{
    for (int32_t k = 0; k < words; k++)
        if (a[k] & b[k])
            return 1;
    return 0;
}

static int empty(const mask_word *m, int32_t words)
{
    for (int32_t k = 0; k < words; k++)
        if (m[k])
            return 0;
    return 1;
}

/* the walks of the pair (m1, m2), capped at two, each stepped on one edge,
   into (r1, r2): _step, also _extend's step of (d1, d2) */
static void step(const struct walk *s, const mask_word *m1, const mask_word *m2,
                 mask_word *r1, mask_word *r2)
{
    int32_t words = s->words;
    memset(r1, 0, words * sizeof *r1);
    memset(r2, 0, words * sizeof *r2);
    for (int32_t k = 0; k < words; k++) {
        mask_word m = m1[k];
        while (m) {
            int bit = lowest_bit(m);
            const mask_word *targets = s->out_any + (size_t)(k * 64 + bit) * words;
            int two = (int)((m2[k] >> bit) & 1);
            for (int32_t j = 0; j < words; j++) {
                r2[j] |= r1[j] & targets[j];
                if (two)
                    r2[j] |= targets[j];
                r1[j] |= targets[j];
            }
            m &= m - 1;
        }
    }
}

static int save_row(struct walk *s, int32_t i)
{
    size_t size = 1 + 2 * (size_t)s->words;
    if (s->undo_len + size > s->undo_cap) {
        size_t cap = 2 * s->undo_cap + size;
        mask_word *grown = realloc(s->undo, cap * sizeof *grown);
        if (!grown)
            return -1;
        s->undo = grown;
        s->undo_cap = cap;
    }
    s->undo[s->undo_len] = (mask_word)i;
    memcpy(s->undo + s->undo_len + 1, s->rows + (size_t)i * 2 * s->words,
           2 * s->words * sizeof *s->undo);
    s->undo_len += size;
    return 0;
}

/* copies back every row saved since the undo stack had length mark */
static void restore_rows(struct walk *s, size_t mark)
{
    size_t size = 1 + 2 * (size_t)s->words;
    while (s->undo_len > mark) {
        s->undo_len -= size;
        int32_t i = (int32_t)s->undo[s->undo_len];
        memcpy(s->rows + (size_t)i * 2 * s->words, s->undo + s->undo_len + 1,
               2 * s->words * sizeof *s->undo);
    }
}

/* _extend: the rows with the new transition path[depth] -> target, written
   in place, each changed row saved first; 1 if they stand, 0 if cut, and
   -1 if memory ran out.  The transition's bit of out_any is already set. */
static int extend(struct walk *s, int32_t depth, int32_t target)
{
    int32_t words = s->words;
    int32_t source = s->path[depth];
    mask_word d1[words], d2[words], r1[words], r2[words];
    int32_t first = 0;
    while (!has(s->rows + (size_t)first * 2 * words, source))
        first++;
    /* the source bits of the old row before i, m1 & bit and m2 & bit */
    const mask_word *row = s->rows + (size_t)first * 2 * words;
    int m1_source = has(row, source), m2_source = has(row + words, source);
    memset(d1, 0, sizeof d1);
    memset(d2, 0, sizeof d2);
    for (int32_t i = first + 1; i <= depth; i++) {
        /* the walks of length i that take the new edge: those of length
           i - 1 stepped on, and the old walks into source taking it */
        step(s, d1, d2, r1, r2);
        if (m1_source) {
            if (m2_source || has(r1, target))
                r2[target >> 6] |= (mask_word)1 << (target & 63);
            r1[target >> 6] |= (mask_word)1 << (target & 63);
        }
        memcpy(d1, r1, sizeof d1);
        memcpy(d2, r2, sizeof d2);
        mask_word *m1 = s->rows + (size_t)i * 2 * words, *m2 = m1 + words;
        m1_source = has(m1, source);
        m2_source = has(m2, source);
        if (has(d1, s->path[i]))
            return 0;
        if (!empty(d1, words)) {
            if (save_row(s, i))
                return -1;
            for (int32_t k = 0; k < words; k++) {
                m2[k] |= d2[k] | (m1[k] & d1[k]);
                m1[k] |= d1[k];
            }
        }
    }
    if (meets(d1, s->in_any + (size_t)target * words, words))
        return 0;
    mask_word *last = s->rows + (size_t)depth * 2 * words, *next = last + 2 * words;
    step(s, last, last + words, next, next + words);
    return 1;
}

/* _walk: 1 once a full path with lo states ends the walk, 0 if the walk
   from here is done without one, and -1 if memory ran out */
static int walk(struct walk *s, int32_t depth, int32_t max_state)
{
    int32_t words = s->words;
    if (depth == s->n) {
        memcpy(s->best, s->path, (size_t)(s->n + 1) * sizeof *s->best);
        s->found = 1;
        s->q = max_state;
        return max_state < s->lo;
    }
    mask_word *last = s->rows + (size_t)depth * 2 * words, *next = last + 2 * words;
    int32_t source = s->path[depth];
    int32_t letter = s->letters[depth] + 1;
    int32_t *edges = s->labels + (size_t)source * s->stride;
    mask_word *out_source = s->out_any + (size_t)source * words;
    for (int32_t t = 0; t <= max_state + 1; t++) {
        int32_t target = s->least ? t : max_state + 1 - t;
        int32_t new_max = target <= max_state ? max_state : target;
        int done;
        if (new_max >= s->q)
            continue;
        s->counts[new_max]++;
        mask_word *in_target = s->in_any + (size_t)target * words;
        mask_word target_bit = (mask_word)1 << (target & 63);
        if (edges[target] == letter) {
            step(s, last, last + words, next, next + words);
            if (has(next + words, target))
                continue;
            s->path[depth + 1] = target;
            done = walk(s, depth + 1, new_max);
        } else if (meets(last, in_target, words)) {
            continue;
        } else {
            /* source is in the last row, so past the in_any test
               source -> target has no letter yet */
            size_t mark = s->undo_len;
            out_source[target >> 6] |= target_bit;
            int extended = extend(s, depth, target);
            if (extended < 0)
                return -1;
            if (!extended) {
                restore_rows(s, mark);
                out_source[target >> 6] &= ~target_bit;
                continue;
            }
            edges[target] = letter;
            in_target[source >> 6] |= (mask_word)1 << (source & 63);
            s->path[depth + 1] = target;
            done = walk(s, depth + 1, new_max);
            restore_rows(s, mark);
            edges[target] = 0;
            in_target[source >> 6] &= ~((mask_word)1 << (source & 63));
            out_source[target >> 6] &= ~target_bit;
        }
        if (done)
            return done;
    }
    return 0;
}

/*
 * One walk of letters[0..n) over the window [lo, q] of state counts, in
 * increasing order of targets if least, else new state first.  Writes
 * counts[0..q), the extensions examined by largest state, and *final_q,
 * the walk's q when it ends.  Returns 1 with the walk's last full path in
 * best[0..n], 0 if it found none, and -1 if memory ran out.
 */
int acx_walk(const int32_t *letters, int32_t n, int32_t lo, int32_t q, int32_t least,
             int32_t *best, int32_t *final_q, int64_t *counts)
{
    struct walk s = {0};
    int32_t words = q > 64 ? (q + 63) / 64 : 1;
    int result = -1;
    s.letters = letters;
    s.n = n;
    s.lo = lo;
    s.q = q;
    s.least = least;
    s.stride = q;
    s.words = words;
    s.best = best;
    s.counts = counts;
    s.labels = calloc((size_t)q * q + 1, sizeof *s.labels);
    s.out_any = calloc((size_t)q * words + 1, sizeof *s.out_any);
    s.in_any = calloc((size_t)q * words + 1, sizeof *s.in_any);
    s.rows = calloc((size_t)(n + 2) * 2 * words, sizeof *s.rows);
    s.path = calloc((size_t)n + 2, sizeof *s.path);
    if (s.labels && s.out_any && s.in_any && s.rows && s.path) {
        memset(counts, 0, (size_t)q * sizeof *counts);
        s.rows[0] = 1;
        s.path[0] = 0;
        result = walk(&s, 0, 0) < 0 ? -1 : s.found;
        *final_q = s.q;
    }
    free(s.labels);
    free(s.out_any);
    free(s.in_any);
    free(s.rows);
    free(s.path);
    free(s.undo);
    return result;
}
