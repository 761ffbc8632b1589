/* The native BDD node store behind repro.bdd.native.NativeArena.
 *
 * The same format as the Python Arena (repro/bdd/arena.py): parallel
 * int32 level/low/high arrays, terminals 0 and 1 at TERMINAL_LEVEL,
 * children before parents.  The unique table and the computed tables
 * (ite, not, and, or, xor and the constrain memo) are open-addressing
 * tables with linear probing that grow and never evict; a compaction
 * rebuilds the one and drops the others.  Every kernel is a line-by-line
 * twin of its Python closure: low cofactor first, the same terminal
 * shortcuts and the same keys, so node ids and hit/miss counts agree.
 *
 * A failure (allocation, id space, stack depth, a bad node id) sets
 * `err` and makes the operation return -1; the nodes and table entries
 * built so far stay valid.  Recursion is guarded by the stack itself:
 * a kernel frame below `floor` (the calling thread's stack bottom plus
 * a margin) fails instead of overflowing.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__GLIBC__)
#include <pthread.h>
#endif

/* Keep the GIL across every call, as the Python kernels do: no other
 * thread may read the arrays while a kernel reallocates them. */
#undef Py_BEGIN_ALLOW_THREADS
#undef Py_END_ALLOW_THREADS
#define Py_BEGIN_ALLOW_THREADS {
#define Py_END_ALLOW_THREADS }

#define TERMINAL_LEVEL (1 << 30)
#define MIN_TABLE 256
#define STACK_MARGIN (256 * 1024)

enum { T_ITE, T_NOT, T_AND, T_OR, T_XOR, T_CON, N_TABLES };
enum { OP_AND, OP_OR, OP_XOR };
enum { ERR_NONE, ERR_NOMEM, ERR_DEPTH, ERR_FULL, ERR_NODE };

typedef struct { int32_t a, b, c, r; } slot;   /* key (a, b, c) -> r */
typedef struct { slot *s; uint64_t mask; int64_t count; } table;

typedef struct {
    int32_t *level, *low, *high;
    int64_t size, cap;              /* rows, terminals included */
    int64_t hits[5], miss_base[5];
    int64_t peak, dropped;
    int32_t err, bad;
    char *floor;                    /* lowest frame address a kernel may use */
    table unique;                   /* (level, low, high) -> id; empty: r == 0 */
    table cache[N_TABLES];          /* (f, g, h) -> result; empty: a == 0 */
} bdd_store;

static int64_t live_stores;
static const slot no_slot;          /* what a lookup in an empty table sees */
static __thread char *thread_floor;

/* The calling thread's stack bottom plus a margin (cached per thread);
 * where the stack's bounds are unknown, 4 MiB below the first call. */
static char *stack_floor(void)
{
    if (!thread_floor) {
#if defined(__GLIBC__)
        pthread_attr_t attr;
        void *addr;
        size_t size;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            if (pthread_attr_getstack(&attr, &addr, &size) == 0)
                thread_floor = (char *)addr + STACK_MARGIN;
            pthread_attr_destroy(&attr);
        }
#endif
        if (!thread_floor)
            thread_floor = (char *)__builtin_frame_address(0) - (4 << 20);
    }
    return thread_floor;
}

static inline int too_deep(const bdd_store *s)
{
    return (char *)__builtin_frame_address(0) < s->floor;
}

static int32_t fail(bdd_store *s, int32_t code)
{
    if (!s->err)
        s->err = code;
    return -1;
}

static inline uint64_t hash3(int32_t a, int32_t b, int32_t c)
{
    uint64_t h = (uint32_t)a * 0x9E3779B97F4A7C15ULL;
    h = (h ^ (uint32_t)b) * 0xC2B2AE3D27D4EB4FULL;
    h = (h ^ (uint32_t)c) * 0x165667B19E3779F9ULL;
    return h ^ (h >> 32);
}

/* The slot holding key (a, b, c), or the empty slot where it would go. */
static inline slot *probe(const table *t, int32_t a, int32_t b, int32_t c,
                          int unique)
{
    uint64_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        slot *e = &t->s[i];
        if ((unique ? e->r == 0 : e->a == 0)
                || (e->a == a && e->b == b && e->c == c))
            return e;
        i = (i + 1) & t->mask;
    }
}

/* Make room for one more entry (load factor at most 1/2). */
static int reserve(table *t, int64_t more, int unique)
{
    uint64_t cap = t->s ? t->mask + 1 : 0;
    if ((uint64_t)(t->count + more) * 2 <= cap)
        return 0;
    uint64_t grown = cap ? cap : MIN_TABLE;
    while ((uint64_t)(t->count + more) * 2 > grown)
        grown *= 2;
    slot *fresh = calloc(grown, sizeof(slot));
    if (!fresh)
        return -1;
    table next = { fresh, grown - 1, t->count };
    for (uint64_t i = 0; i < cap; i++) {
        slot *e = &t->s[i];
        if (unique ? e->r != 0 : e->a != 0)
            *probe(&next, e->a, e->b, e->c, unique) = *e;
    }
    free(t->s);
    *t = next;
    return 0;
}

static void clear(table *t)
{
    free(t->s);
    t->s = NULL;
    t->mask = 0;
    t->count = 0;
}

static inline const slot *cache_get(const table *t, int32_t a, int32_t b,
                                    int32_t c)
{
    return t->s ? probe(t, a, b, c, 0) : &no_slot;
}

static int cache_put(bdd_store *s, table *t, int32_t a, int32_t b, int32_t c,
                     int32_t r)
{
    if (reserve(t, 1, 0) < 0)
        return fail(s, ERR_NOMEM);
    slot *e = probe(t, a, b, c, 0);
    if (e->a == 0)
        t->count++;
    e->a = a;
    e->b = b;
    e->c = c;
    e->r = r;
    return 0;
}

static int grow_rows(bdd_store *s, int64_t need)
{
    if (need <= s->cap)
        return 0;
    if (need > INT32_MAX)
        return fail(s, ERR_FULL);
    int64_t cap = s->cap;
    while (cap < need)
        cap = cap * 2 > INT32_MAX ? INT32_MAX : cap * 2;
    int32_t *p;
    /* each array keeps its new block even if a later one fails */
    if (!(p = realloc(s->level, cap * sizeof(int32_t))))
        return fail(s, ERR_NOMEM);
    s->level = p;
    if (!(p = realloc(s->low, cap * sizeof(int32_t))))
        return fail(s, ERR_NOMEM);
    s->low = p;
    if (!(p = realloc(s->high, cap * sizeof(int32_t))))
        return fail(s, ERR_NOMEM);
    s->high = p;
    s->cap = cap;
    return 0;
}

static int32_t append(bdd_store *s, int32_t level, int32_t low, int32_t high)
{
    if (s->size == s->cap && grow_rows(s, s->size + 1) < 0)
        return -1;
    int32_t id = (int32_t)s->size++;
    s->level[id] = level;
    s->low[id] = low;
    s->high[id] = high;
    return id;
}

/* Find-or-create (level, low, high); low != high. */
static int32_t unique_add(bdd_store *s, int32_t level, int32_t low,
                          int32_t high)
{
    table *t = &s->unique;
    if (reserve(t, 1, 1) < 0)
        return fail(s, ERR_NOMEM);
    slot *e = probe(t, level, low, high, 1);
    if (e->r)
        return e->r;
    int32_t id = append(s, level, low, high);
    if (id < 0)
        return id;
    e->a = level;
    e->b = low;
    e->c = high;
    e->r = id;
    t->count++;
    return id;
}

/* ------------------------------------------------------------------ */
/* kernels                                                             */
/* ------------------------------------------------------------------ */

static int32_t not_k(bdd_store *s, int32_t f)
{
    if (f <= 1)
        return f ^ 1;
    table *t = &s->cache[T_NOT];
    const slot *e = cache_get(t, f, 0, 0);
    if (e->a) {
        s->hits[T_NOT]++;
        return e->r;
    }
    if (too_deep(s))
        return fail(s, ERR_DEPTH);
    int32_t level = s->level[f], low = s->low[f], high = s->high[f];
    int32_t r0 = not_k(s, low);
    if (r0 < 0)
        return r0;
    int32_t r1 = not_k(s, high);
    if (r1 < 0)
        return r1;
    /* complements of distinct canonical children stay distinct */
    int32_t r = unique_add(s, level, r0, r1);
    if (r < 0)
        return r;
    if (cache_put(s, t, f, 0, 0, r) < 0 || cache_put(s, t, r, 0, 0, f) < 0)
        return -1;
    return r;
}

static int32_t apply_k(bdd_store *s, int op, int32_t f, int32_t g)
{
    if (f > g) {
        int32_t swap = f;
        f = g;
        g = swap;
    }
    if (f == 0)
        return op == OP_AND ? 0 : g;
    if (f == 1) {
        if (op == OP_AND)
            return g;
        if (op == OP_OR)
            return 1;
        return not_k(s, g);
    }
    if (f == g)
        return op == OP_XOR ? 0 : g;
    table *t = &s->cache[T_AND + op];
    const slot *e = cache_get(t, f, g, 0);
    if (e->a) {
        s->hits[T_AND + op]++;
        return e->r;
    }
    if (too_deep(s))
        return fail(s, ERR_DEPTH);
    int32_t lf = s->level[f], lg = s->level[g], top, r0, r1;
    if (lf == lg) {
        top = lf;
        r0 = apply_k(s, op, s->low[f], s->low[g]);
        if (r0 < 0)
            return r0;
        r1 = apply_k(s, op, s->high[f], s->high[g]);
    } else if (lf < lg) {
        top = lf;
        r0 = apply_k(s, op, s->low[f], g);
        if (r0 < 0)
            return r0;
        r1 = apply_k(s, op, s->high[f], g);
    } else {
        top = lg;
        r0 = apply_k(s, op, f, s->low[g]);
        if (r0 < 0)
            return r0;
        r1 = apply_k(s, op, f, s->high[g]);
    }
    if (r1 < 0)
        return r1;
    int32_t r = r0 == r1 ? r0 : unique_add(s, top, r0, r1);
    if (r < 0 || cache_put(s, t, f, g, 0, r) < 0)
        return -1;
    return r;
}

static int32_t ite_k(bdd_store *s, int32_t f, int32_t g, int32_t h)
{
    if (f == 1)
        return g;
    if (f == 0)
        return h;
    if (g == h)
        return g;
    if (g == f)
        g = 1;
    if (h == f)
        h = 0;
    if (g == 1) {
        if (h == 0)
            return f;
        return apply_k(s, OP_OR, f, h);
    }
    if (h == 0)
        return apply_k(s, OP_AND, f, g);
    table *t = &s->cache[T_ITE];
    const slot *e = cache_get(t, f, g, h);
    if (e->a) {
        s->hits[T_ITE]++;
        return e->r;
    }
    if (too_deep(s))
        return fail(s, ERR_DEPTH);
    int32_t lf = s->level[f], lg = s->level[g], lh = s->level[h];
    int32_t top = lf < lg ? lf : lg;
    if (lh < top)
        top = lh;
    int32_t f0 = f, f1 = f, g0 = g, g1 = g, h0 = h, h1 = h;
    if (lf == top) {
        f0 = s->low[f];
        f1 = s->high[f];
    }
    if (lg == top) {
        g0 = s->low[g];
        g1 = s->high[g];
    }
    if (lh == top) {
        h0 = s->low[h];
        h1 = s->high[h];
    }
    int32_t r0 = ite_k(s, f0, g0, h0);
    if (r0 < 0)
        return r0;
    int32_t r1 = ite_k(s, f1, g1, h1);
    if (r1 < 0)
        return r1;
    int32_t r = r0 == r1 ? r0 : unique_add(s, top, r0, r1);
    if (r < 0 || cache_put(s, t, f, g, h, r) < 0)
        return -1;
    return r;
}

/* Coudert-Madre generalized cofactor: where one cofactor of the care
 * set is empty, follow the other and drop the variable.  Its memo is a
 * table of its own, kept to the next safe point and counted nowhere. */
static int32_t constrain_k(bdd_store *s, int32_t f, int32_t c)
{
    if (c == 1 || f <= 1)
        return f;
    if (c == 0)
        return 0;
    if (f == c)
        return 1;
    table *t = &s->cache[T_CON];
    const slot *e = cache_get(t, f, c, 0);
    if (e->a)
        return e->r;
    if (too_deep(s))
        return fail(s, ERR_DEPTH);
    int32_t lf = s->level[f], lc = s->level[c];
    int32_t top = lf < lc ? lf : lc;
    int32_t f0 = f, f1 = f, c0 = c, c1 = c, r;
    if (lf == top) {
        f0 = s->low[f];
        f1 = s->high[f];
    }
    if (lc == top) {
        c0 = s->low[c];
        c1 = s->high[c];
    }
    if (c0 == 0) {
        r = constrain_k(s, f1, c1);
    } else if (c1 == 0) {
        r = constrain_k(s, f0, c0);
    } else {
        int32_t r0 = constrain_k(s, f0, c0);
        if (r0 < 0)
            return r0;
        int32_t r1 = constrain_k(s, f1, c1);
        if (r1 < 0)
            return r1;
        r = r0 == r1 ? r0 : unique_add(s, top, r0, r1);
    }
    if (r < 0 || cache_put(s, t, f, c, 0, r) < 0)
        return -1;
    return r;
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

static int bad_node(bdd_store *s, int32_t f)
{
    if (f >= 0 && f < s->size)
        return 0;
    s->bad = f;
    fail(s, ERR_NODE);
    return 1;
}

bdd_store *bdd_new(void)
{
    bdd_store *s = calloc(1, sizeof(bdd_store));
    if (!s)
        return NULL;
    s->cap = 1024;
    s->level = malloc(s->cap * sizeof(int32_t));
    s->low = malloc(s->cap * sizeof(int32_t));
    s->high = malloc(s->cap * sizeof(int32_t));
    if (!s->level || !s->low || !s->high) {
        free(s->level);
        free(s->low);
        free(s->high);
        free(s);
        return NULL;
    }
    for (int i = 0; i < 2; i++) {
        s->level[i] = TERMINAL_LEVEL;
        s->low[i] = s->high[i] = 0;
    }
    s->size = 2;
    live_stores++;
    return s;
}

void bdd_free(bdd_store *s)
{
    free(s->level);
    free(s->low);
    free(s->high);
    clear(&s->unique);
    for (int i = 0; i < N_TABLES; i++)
        clear(&s->cache[i]);
    free(s);
    live_stores--;
}

int64_t bdd_live_stores(void)
{
    return live_stores;
}

/* Every kernel entry: arm the depth guard for the calling thread. */
static int bad_args(bdd_store *s, int32_t f, int32_t g, int32_t h)
{
    s->floor = stack_floor();
    return bad_node(s, f) || bad_node(s, g) || bad_node(s, h);
}

int32_t bdd_mk(bdd_store *s, int32_t level, int32_t low, int32_t high)
{
    if (bad_node(s, low) || bad_node(s, high))
        return -1;
    return low == high ? low : unique_add(s, level, low, high);
}

int32_t bdd_ite(bdd_store *s, int32_t f, int32_t g, int32_t h)
{
    return bad_args(s, f, g, h) ? -1 : ite_k(s, f, g, h);
}

int32_t bdd_not(bdd_store *s, int32_t f)
{
    return bad_args(s, f, f, f) ? -1 : not_k(s, f);
}

int32_t bdd_and(bdd_store *s, int32_t f, int32_t g)
{
    return bad_args(s, f, g, g) ? -1 : apply_k(s, OP_AND, f, g);
}

int32_t bdd_or(bdd_store *s, int32_t f, int32_t g)
{
    return bad_args(s, f, g, g) ? -1 : apply_k(s, OP_OR, f, g);
}

int32_t bdd_xor(bdd_store *s, int32_t f, int32_t g)
{
    return bad_args(s, f, g, g) ? -1 : apply_k(s, OP_XOR, f, g);
}

int32_t bdd_constrain(bdd_store *s, int32_t f, int32_t c)
{
    return bad_args(s, f, c, c) ? -1 : constrain_k(s, f, c);
}

void bdd_misses(bdd_store *s, int64_t *out)
{
    for (int i = 0; i < 5; i++)
        out[i] = s->miss_base[i] + s->cache[i].count / (i == T_NOT ? 2 : 1);
}

void bdd_drop_caches(bdd_store *s)
{
    bdd_misses(s, s->miss_base);
    for (int i = 0; i < N_TABLES; i++)
        clear(&s->cache[i]);
}

/* Flag the nodes reachable from `roots` in `marked` (size entries,
 * zeroed); terminals are flagged too. */
int32_t bdd_mark(bdd_store *s, const int32_t *roots, int64_t count,
                 uint8_t *marked)
{
    int32_t *stack = malloc((s->size + 1) * sizeof(int32_t));
    if (!stack)
        return fail(s, ERR_NOMEM);
    int64_t top = 0;
    marked[0] = marked[1] = 1;
    for (int64_t i = 0; i < count; i++) {
        if (bad_node(s, roots[i])) {
            free(stack);
            return -1;
        }
        if (!marked[roots[i]]) {
            marked[roots[i]] = 1;
            stack[top++] = roots[i];
        }
    }
    while (top) {
        int32_t node = stack[--top];
        int32_t child = s->low[node];
        if (!marked[child]) {
            marked[child] = 1;
            stack[top++] = child;
        }
        child = s->high[node];
        if (!marked[child]) {
            marked[child] = 1;
            stack[top++] = child;
        }
    }
    free(stack);
    return 0;
}

/* Slide the marked nodes down; node_map (size entries) receives old id
 * -> new id for marked ids and the identity elsewhere.  The unique
 * table is rebuilt first, so a failed allocation changes nothing. */
int32_t bdd_compact(bdd_store *s, const uint8_t *marked, int32_t *node_map)
{
    int64_t size = s->size, live = 0;
    for (int64_t node = 2; node < size; node++)
        live += marked[node] != 0;
    table fresh = { NULL, 0, 0 };
    if (reserve(&fresh, live, 1) < 0)
        return fail(s, ERR_NOMEM);
    if (size - 2 > s->peak)
        s->peak = size - 2;
    node_map[0] = 0;
    node_map[1] = 1;
    int32_t write = 2;
    for (int32_t node = 2; node < size; node++) {
        node_map[node] = node;
        if (!marked[node])
            continue;
        node_map[node] = write;
        int32_t level = s->level[node];
        int32_t low = node_map[s->low[node]];
        int32_t high = node_map[s->high[node]];
        s->level[write] = level;
        s->low[write] = low;
        s->high[write] = high;
        slot *e = probe(&fresh, level, low, high, 1);
        e->a = level;
        e->b = low;
        e->c = high;
        e->r = write;
        fresh.count++;
        write++;
    }
    clear(&s->unique);
    s->unique = fresh;
    s->size = write;
    s->dropped += size - write;
    bdd_drop_caches(s);
    return 0;
}

/* Nodes per level into counts[nvars]; fails on a level out of range. */
int32_t bdd_level_counts(bdd_store *s, int64_t *counts, int32_t nvars)
{
    for (int32_t node = 2; node < s->size; node++) {
        int32_t level = s->level[node];
        if (level < 0 || level >= nvars) {
            s->bad = node;
            return fail(s, ERR_NODE);
        }
        counts[level]++;
    }
    return 0;
}

/* Append `count` rows (level, FALSE, previous row) no table holds. */
int32_t bdd_pad(bdd_store *s, int32_t level, int64_t count)
{
    if (count <= 0)
        return 0;
    if (grow_rows(s, s->size + count) < 0)
        return -1;
    for (int64_t i = 0; i < count; i++)
        append(s, level, 0, (int32_t)(s->size - 1));
    return 0;
}

/* Load an image into a fresh store.  On a bad node returns its check
 * (1 child order, 2 equal children, 3 level, 4 duplicate) and sets
 * where[0] to the node and where[1] to the node it duplicates. */
int32_t bdd_load(bdd_store *s, const int32_t *level, const int32_t *low,
                 const int32_t *high, int64_t size, int32_t nvars,
                 int64_t *where)
{
    if (grow_rows(s, size) < 0 || reserve(&s->unique, size, 1) < 0)
        return fail(s, ERR_NOMEM);
    for (int64_t i = 0; i < 2; i++) {
        s->level[i] = level[i];
        s->low[i] = low[i];
        s->high[i] = high[i];
    }
    for (int32_t node = 2; node < size; node++) {
        int32_t lv = level[node], lo = low[node], hi = high[node];
        where[0] = node;
        if (!(lo >= 0 && lo < node && hi >= 0 && hi < node))
            return 1;
        if (lo == hi)
            return 2;
        if (lv < 0 || lv >= nvars)
            return 3;
        slot *e = probe(&s->unique, lv, lo, hi, 1);
        if (e->r) {
            where[1] = e->r;
            return 4;
        }
        e->a = lv;
        e->b = lo;
        e->c = hi;
        e->r = node;
        s->unique.count++;
        append(s, lv, lo, hi);
    }
    return 0;
}
