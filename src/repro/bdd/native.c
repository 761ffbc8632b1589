/* The native BDD node store behind repro.bdd.native.NativeArena.
 *
 * The same format as the Python Arena (repro/bdd/arena.py): parallel
 * int32 level/low/high arrays, terminals 0 and 1 at TERMINAL_LEVEL,
 * children before parents.  The unique table is exact: open addressing
 * with linear probing, at most half full.  The computed tables (ite,
 * not, and, or, xor and the constrain memo) are lossy caches: direct-
 * mapped, sized from the unique table, and a put overwrites whatever
 * held its slot.  A compaction rebuilds the one and drops the others.
 * Every kernel is a line-by-line twin of its Python closure: low
 * cofactor first, the same terminal shortcuts and the same keys, so
 * node ids agree.  Between compactions no node dies, so recomputing an
 * evicted key finds every node it builds in the unique table: eviction
 * changes no node, only the counters.  A miss counts each computation,
 * recomputations included, so the misses equal the Python store's
 * (exact tables) only while no live entry has been overwritten, and
 * are never fewer.  The sift at the end is the twin of
 * repro.bdd.arena._SiftSpace.
 *
 * A failure (allocation, id space, stack depth, a bad node id) sets
 * `err` and makes the operation return -1; the nodes and table entries
 * built so far stay valid.  Cache memory never fails a kernel: a
 * computed table that cannot grow keeps its size.  Recursion is
 * guarded by the stack itself: a kernel frame below `floor` (the
 * calling thread's stack bottom plus a margin) fails instead of
 * overflowing.
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
#define MIN_CACHE 4096              /* computed-table slots, at least */
#define CACHE_SHIFT 3               /* computed table: unique capacity / 8 */
#define STACK_MARGIN (256 * 1024)

enum { T_ITE, T_NOT, T_AND, T_OR, T_XOR, T_CON, N_TABLES };
enum { OP_AND, OP_OR, OP_XOR };
enum { ERR_NONE, ERR_NOMEM, ERR_DEPTH, ERR_FULL, ERR_NODE };

typedef struct { int32_t a, b, c, r; } slot;   /* key (a, b, c) -> r */
/* count: entries, kept for the unique table only */
typedef struct { slot *s; uint64_t mask; int64_t count; } table;

typedef struct {
    int32_t *level, *low, *high;
    int64_t size, cap;              /* rows, terminals included */
    int64_t hits[5], misses[5];     /* per table: hits, computations */
    int64_t peak, dropped;
    int64_t table_peak;             /* bytes of all tables, high-water mark */
    int32_t err, bad;
    char *floor;                    /* lowest frame address a kernel may use */
    table unique;                   /* (level, low, high) -> id; empty: r == 0 */
    table cache[N_TABLES];          /* (f, g, h) -> result; empty: a == 0 */
} bdd_store;

static int64_t live_stores;
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

static inline uint64_t slots_of(const table *t)
{
    return t->s ? t->mask + 1 : 0;
}

/* The unique-table slot holding key (a, b, c), or the empty slot
 * (r == 0) where it would go. */
static inline slot *probe(const table *t, int32_t a, int32_t b, int32_t c)
{
    uint64_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        slot *e = &t->s[i];
        if (e->r == 0 || (e->a == a && e->b == b && e->c == c))
            return e;
        i = (i + 1) & t->mask;
    }
}

/* Make room in the unique table for `more` entries (load factor at
 * most 1/2). */
static int reserve(table *t, int64_t more)
{
    uint64_t cap = slots_of(t);
    if ((uint64_t)(t->count + more) * 2 <= cap)
        return 0;
    uint64_t grown = cap ? cap : MIN_TABLE;
    while ((uint64_t)(t->count + more) * 2 > grown)
        grown *= 2;
    slot *fresh = calloc(grown, sizeof(slot));
    if (!fresh)
        return -1;
    table next = { fresh, grown - 1, t->count };
    for (uint64_t i = 0; i < cap; i++)
        if (t->s[i].r != 0)
            *probe(&next, t->s[i].a, t->s[i].b, t->s[i].c) = t->s[i];
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

/* Raise table_peak to the bytes the tables hold now. */
static void note_tables(bdd_store *s)
{
    uint64_t slots = slots_of(&s->unique);
    for (int i = 0; i < N_TABLES; i++)
        slots += slots_of(&s->cache[i]);
    if ((int64_t)(slots * sizeof(slot)) > s->table_peak)
        s->table_peak = (int64_t)(slots * sizeof(slot));
}

/* The entry for key (a, b, c), or NULL.  Keys start with a node id
 * above the terminals, so an empty slot (a == 0) never matches. */
static inline const slot *cache_get(const table *t, int32_t a, int32_t b,
                                    int32_t c)
{
    if (!t->s)
        return NULL;
    const slot *e = &t->s[hash3(a, b, c) & t->mask];
    return e->a == a && e->b == b && e->c == c ? e : NULL;
}

/* Store (a, b, c) -> r in its slot, over whatever the slot held.  A
 * table smaller than the unique table asks for grows first and keeps
 * every entry: the wider mask extends the narrower one, so entries in
 * distinct slots stay in distinct slots.  A table that cannot grow
 * keeps its size; one that has no slots yet keeps nothing. */
static void cache_put(bdd_store *s, table *t, int32_t a, int32_t b, int32_t c,
                      int32_t r)
{
    uint64_t want = slots_of(&s->unique) >> CACHE_SHIFT;
    if (want < MIN_CACHE)
        want = MIN_CACHE;
    uint64_t had = slots_of(t);
    if (had < want) {
        slot *fresh = calloc(want, sizeof(slot));
        if (fresh) {
            for (uint64_t i = 0; i < had; i++)
                if (t->s[i].a)
                    fresh[hash3(t->s[i].a, t->s[i].b, t->s[i].c)
                          & (want - 1)] = t->s[i];
            free(t->s);
            t->s = fresh;
            t->mask = want - 1;
            note_tables(s);
        } else if (!t->s) {
            return;
        }
    }
    t->s[hash3(a, b, c) & t->mask] = (slot){ a, b, c, r };
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
    uint64_t before = t->mask;
    if (reserve(t, 1) < 0)
        return fail(s, ERR_NOMEM);
    if (t->mask != before)
        note_tables(s);
    slot *e = probe(t, level, low, high);
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
    if (e) {
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
    cache_put(s, t, f, 0, 0, r);
    cache_put(s, t, r, 0, 0, f);
    s->misses[T_NOT]++;
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
    if (e) {
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
    if (r < 0)
        return r;
    cache_put(s, t, f, g, 0, r);
    s->misses[T_AND + op]++;
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
    if (e) {
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
    if (r < 0)
        return r;
    cache_put(s, t, f, g, h, r);
    s->misses[T_ITE]++;
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
    if (e)
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
    if (r < 0)
        return r;
    cache_put(s, t, f, c, 0, r);
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
    memcpy(out, s->misses, sizeof s->misses);
}

/* Bytes the unique and computed tables held at their peak. */
int64_t bdd_table_bytes(bdd_store *s)
{
    return s->table_peak;
}

void bdd_drop_caches(bdd_store *s)
{
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
    if (reserve(&fresh, live) < 0)
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
        slot *e = probe(&fresh, level, low, high);
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
    note_tables(s);
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
    if (grow_rows(s, size) < 0 || reserve(&s->unique, size) < 0)
        return fail(s, ERR_NOMEM);
    note_tables(s);
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
        slot *e = probe(&s->unique, lv, lo, hi);
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

/* ------------------------------------------------------------------ */
/* dynamic sifting                                                     */
/* ------------------------------------------------------------------ */

/* The twin of repro.bdd.arena._SiftSpace: a scratch copy of the rows,
 * labelled by variable (the level each node had when copied), with one
 * chained subtable per variable keyed by (low, high) and a parent count
 * per node; roots are pinned with an extra count.  Sizes are live node
 * counts, which do not depend on the ids the scratch graph hands out,
 * so the swaps, the order and the swap count are _SiftSpace's. */

typedef struct { int32_t *bucket; uint64_t mask; int64_t count; } subtable;
typedef struct { int32_t *v; int64_t n, cap; } ivec;

typedef struct {
    int32_t *var, *low, *high, *next, *parents;   /* var -1: free row */
    int64_t rows, cap;              /* rows handed out and allocated */
    int64_t size;                   /* live internal nodes */
    int32_t nvars;
    subtable *tables;               /* one per variable */
    int32_t *order, *pos_of;        /* position -> variable and back */
    ivec free, pending, work;
    int64_t swaps, budget;
    double growth;
} sift_space;

static int push(ivec *v, int32_t x)
{
    if (v->n == v->cap) {
        int64_t cap = v->cap ? v->cap * 2 : 64;
        int32_t *p = realloc(v->v, cap * sizeof(int32_t));
        if (!p)
            return -1;
        v->v = p;
        v->cap = cap;
    }
    v->v[v->n++] = x;
    return 0;
}

static inline uint64_t sub_hash(const subtable *t, int32_t low, int32_t high)
{
    return hash3(low, high, 0) & t->mask;
}

static int sub_init(subtable *t, int64_t count)
{
    uint64_t buckets = 4;
    while ((int64_t)buckets < count)
        buckets *= 2;
    t->bucket = calloc(buckets, sizeof(int32_t));
    t->mask = buckets - 1;
    t->count = 0;
    return t->bucket ? 0 : -1;
}

static int32_t sub_find(const sift_space *sp, const subtable *t, int32_t low,
                        int32_t high)
{
    int32_t node = t->bucket[sub_hash(t, low, high)];
    while (node && (sp->low[node] != low || sp->high[node] != high))
        node = sp->next[node];
    return node;
}

/* Add `node` (not yet in the table); doubles the buckets past load 1. */
static int sub_insert(sift_space *sp, subtable *t, int32_t node)
{
    if ((uint64_t)t->count > t->mask) {
        uint64_t buckets = (t->mask + 1) * 2;
        int32_t *fresh = calloc(buckets, sizeof(int32_t));
        if (!fresh)
            return -1;
        subtable next = { fresh, buckets - 1, t->count };
        for (uint64_t b = 0; b <= t->mask; b++) {
            int32_t n = t->bucket[b];
            while (n) {
                int32_t after = sp->next[n];
                uint64_t h = sub_hash(&next, sp->low[n], sp->high[n]);
                sp->next[n] = fresh[h];
                fresh[h] = n;
                n = after;
            }
        }
        free(t->bucket);
        *t = next;
    }
    uint64_t h = sub_hash(t, sp->low[node], sp->high[node]);
    sp->next[node] = t->bucket[h];
    t->bucket[h] = node;
    t->count++;
    return 0;
}

static void sub_remove(sift_space *sp, subtable *t, int32_t node)
{
    int32_t *link = &t->bucket[sub_hash(t, sp->low[node], sp->high[node])];
    while (*link != node)
        link = &sp->next[*link];
    *link = sp->next[node];
    t->count--;
}

/* Room for `more` rows beyond those in use. */
static int sift_reserve(sift_space *sp, int64_t more)
{
    int64_t need = sp->rows + more;
    if (need <= sp->cap)
        return 0;
    if (need > INT32_MAX)
        return ERR_FULL;
    int64_t cap = sp->cap ? sp->cap : need;
    while (cap < need)
        cap = cap * 2 > INT32_MAX ? INT32_MAX : cap * 2;
    int32_t **arrays[] = { &sp->var, &sp->low, &sp->high, &sp->next,
                           &sp->parents };
    for (int i = 0; i < 5; i++) {
        int32_t *p = realloc(*arrays[i], cap * sizeof(int32_t));
        if (!p)
            return ERR_NOMEM;
        *arrays[i] = p;
    }
    sp->cap = cap;
    return 0;
}

static void sift_free(sift_space *sp)
{
    free(sp->var);
    free(sp->low);
    free(sp->high);
    free(sp->next);
    free(sp->parents);
    if (sp->tables)
        for (int32_t v = 0; v < sp->nvars; v++)
            free(sp->tables[v].bucket);
    free(sp->tables);
    free(sp->order);
    free(sp->pos_of);
    free(sp->free.v);
    free(sp->pending.v);
    free(sp->work.v);
}

/* The node (u, low, high), found or made, with one more parent. */
static int32_t sift_child(sift_space *sp, int32_t u, int32_t low, int32_t high)
{
    int32_t child = low;
    if (low != high) {
        subtable *t = &sp->tables[u];
        child = sub_find(sp, t, low, high);
        if (!child) {
            child = sp->free.n ? sp->free.v[--sp->free.n]
                               : (int32_t)sp->rows++;
            sp->var[child] = u;
            sp->low[child] = low;
            sp->high[child] = high;
            sp->parents[child] = 0;
            if (sub_insert(sp, t, child) < 0)
                return -1;
            if (low > 1)
                sp->parents[low]++;
            if (high > 1)
                sp->parents[high]++;
            sp->size++;
        }
    }
    if (child > 1)
        sp->parents[child]++;
    return child;
}

/* Exchange the variables at order positions p and p+1 (cuddSwapInPlace):
 * only the upper variable's nodes with a child of the lower one are
 * re-expressed, in place, as nodes of the lower one. */
static int sift_swap(sift_space *sp, int32_t p)
{
    sp->swaps++;
    int32_t u = sp->order[p], w = sp->order[p + 1];
    subtable *upper = &sp->tables[u];
    /* Take the interacting nodes out first: the nodes of u made below
     * have no child labelled w, so no lookup there can want one. */
    sp->work.n = 0;
    for (uint64_t b = 0; b <= upper->mask; b++) {
        int32_t *link = &upper->bucket[b];
        while (*link) {
            int32_t node = *link;
            if (sp->var[sp->low[node]] == w || sp->var[sp->high[node]] == w) {
                *link = sp->next[node];
                upper->count--;
                if (push(&sp->work, node) < 0)
                    return ERR_NOMEM;
            } else {
                link = &sp->next[node];
            }
        }
    }
    /* each interacting node makes at most two nodes of u */
    int code = sift_reserve(sp, 2 * sp->work.n);
    if (code)
        return code;
    int32_t *var = sp->var, *low = sp->low, *high = sp->high;
    int32_t *parents = sp->parents;
    for (int64_t i = 0; i < sp->work.n; i++) {
        int32_t node = sp->work.v[i];
        int32_t f0 = low[node], f1 = high[node];
        int32_t f00 = f0, f01 = f0, f10 = f1, f11 = f1;
        if (var[f0] == w) {
            f00 = low[f0];
            f01 = high[f0];
        }
        if (var[f1] == w) {
            f10 = low[f1];
            f11 = high[f1];
        }
        /* ite(u, f1, f0) == ite(w, ite(u, f11, f01), ite(u, f10, f00)) */
        int32_t c0 = sift_child(sp, u, f00, f10);
        if (c0 < 0)
            return ERR_NOMEM;
        int32_t c1 = sift_child(sp, u, f01, f11);
        if (c1 < 0)
            return ERR_NOMEM;
        int32_t old[2] = { f0, f1 };
        for (int k = 0; k < 2; k++)
            if (old[k] > 1 && --parents[old[k]] == 0
                    && push(&sp->pending, old[k]) < 0)
                return ERR_NOMEM;
        var[node] = w;
        low[node] = c0;
        high[node] = c1;
        if (sub_insert(sp, &sp->tables[w], node) < 0)
            return ERR_NOMEM;
    }
    /* Sweep the orphans, cascading, skipping any that sharing revived
     * (or an earlier entry already freed). */
    while (sp->pending.n) {
        int32_t node = sp->pending.v[--sp->pending.n];
        if (parents[node] != 0 || var[node] < 0)
            continue;
        sub_remove(sp, &sp->tables[var[node]], node);
        int32_t kids[2] = { low[node], high[node] };
        for (int k = 0; k < 2; k++)
            if (kids[k] > 1 && --parents[kids[k]] == 0
                    && push(&sp->pending, kids[k]) < 0)
                return ERR_NOMEM;
        var[node] = -1;
        if (push(&sp->free, node) < 0)
            return ERR_NOMEM;
        sp->size--;
    }
    sp->order[p] = w;
    sp->order[p + 1] = u;
    sp->pos_of[w] = p;
    sp->pos_of[u] = p + 1;
    return 0;
}

/* Move one variable through the order, nearer end first, and settle it
 * at the best position seen (that return is off budget). */
static int sift_one(sift_space *sp, int32_t pos)
{
    int64_t limit = (int64_t)((double)sp->size * sp->growth) + 2;
    int64_t best_size = sp->size;
    int32_t best_pos = pos, cur = pos, top = sp->nvars - 1;
    int code;
    int up_first = pos <= top - pos;
    for (int phase = 0; phase < 2; phase++) {
        if ((phase == 0) == up_first) {
            while (cur > 0 && sp->budget > 0 && sp->size <= limit) {
                if ((code = sift_swap(sp, cur - 1)))
                    return code;
                sp->budget--;
                cur--;
                if (sp->size < best_size) {
                    best_size = sp->size;
                    best_pos = cur;
                }
            }
        } else {
            while (cur < top && sp->budget > 0 && sp->size <= limit) {
                if ((code = sift_swap(sp, cur)))
                    return code;
                sp->budget--;
                cur++;
                if (sp->size < best_size) {
                    best_size = sp->size;
                    best_pos = cur;
                }
            }
        }
    }
    for (; cur > best_pos; cur--)
        if ((code = sift_swap(sp, cur - 1)))
            return code;
    for (; cur < best_pos; cur++)
        if ((code = sift_swap(sp, cur)))
            return code;
    return 0;
}

typedef struct { int64_t count; int32_t pos, var; } candidate;

/* Larger subtables first; equal ones in order position (a stable sort). */
static int by_size(const void *a, const void *b)
{
    const candidate *x = a, *y = b;
    if (x->count != y->count)
        return x->count > y->count ? -1 : 1;
    return x->pos < y->pos ? -1 : x->pos > y->pos;
}

static int sift_run(sift_space *sp, int converge, int64_t max_vars)
{
    candidate *cands = malloc((sp->nvars + 1) * sizeof(candidate));
    if (!cands)
        return ERR_NOMEM;
    int code = 0;
    for (;;) {
        int64_t start_size = sp->size;
        for (int32_t p = 0; p < sp->nvars; p++) {
            int32_t v = sp->order[p];
            cands[p] = (candidate){ sp->tables[v].count, p, v };
        }
        qsort(cands, sp->nvars, sizeof(candidate), by_size);
        for (int64_t i = 0; i < max_vars && i < sp->nvars; i++) {
            if (sp->budget <= 0)
                break;
            if ((code = sift_one(sp, sp->pos_of[cands[i].var])))
                goto done;
        }
        if (!converge || sp->budget <= 0 || sp->size >= start_size)
            break;
    }
done:
    free(cands);
    return code;
}

/* Sift the rows as _SiftSpace.run does: `roots` are pinned, levels are
 * below `nvars`, `max_vars` is the candidate count per pass (already
 * cut to nvars).  Writes the best order (position -> level) and the
 * swaps made; the store itself is left as it was. */
int32_t bdd_sift(bdd_store *s, const int32_t *roots, int64_t nroots,
                 int32_t nvars, int32_t converge, int64_t max_swap,
                 double max_growth, int64_t max_vars, int32_t *order_out,
                 int64_t *swaps_out)
{
    for (int64_t i = 0; i < nroots; i++)
        if (bad_node(s, roots[i]))
            return -1;
    for (int32_t node = 2; node < s->size; node++)
        if (s->level[node] < 0 || s->level[node] >= nvars) {
            s->bad = node;
            return fail(s, ERR_NODE);
        }
    sift_space sp;
    memset(&sp, 0, sizeof sp);
    sp.nvars = nvars;
    sp.budget = max_swap;
    sp.growth = max_growth;
    int code = ERR_NOMEM;
    sp.tables = calloc(nvars + 1, sizeof(subtable));
    sp.order = malloc((nvars + 1) * sizeof(int32_t));
    sp.pos_of = malloc((nvars + 1) * sizeof(int32_t));
    int64_t *counts = calloc(nvars + 1, sizeof(int64_t));
    if (!sp.tables || !sp.order || !sp.pos_of || !counts)
        goto out;
    if ((code = sift_reserve(&sp, s->size)))
        goto out;
    code = ERR_NOMEM;
    for (int32_t v = 0; v < nvars; v++)
        sp.order[v] = sp.pos_of[v] = v;
    for (int32_t node = 2; node < s->size; node++)
        counts[s->level[node]]++;
    for (int32_t v = 0; v < nvars; v++)
        if (sub_init(&sp.tables[v], counts[v]) < 0)
            goto out;
    sp.rows = s->size;
    memcpy(sp.var, s->level, s->size * sizeof(int32_t));
    memcpy(sp.low, s->low, s->size * sizeof(int32_t));
    memcpy(sp.high, s->high, s->size * sizeof(int32_t));
    memset(sp.parents, 0, s->size * sizeof(int32_t));
    for (int32_t node = 2; node < s->size; node++) {
        if (sub_insert(&sp, &sp.tables[sp.var[node]], node) < 0)
            goto out;
        if (sp.low[node] > 1)
            sp.parents[sp.low[node]]++;
        if (sp.high[node] > 1)
            sp.parents[sp.high[node]]++;
    }
    for (int64_t i = 0; i < nroots; i++)
        if (roots[i] > 1)
            sp.parents[roots[i]]++;
    sp.size = s->size - 2;
    if ((code = sift_run(&sp, converge, max_vars)))
        goto out;
    memcpy(order_out, sp.order, nvars * sizeof(int32_t));
    *swaps_out = sp.swaps;
out:
    free(counts);
    sift_free(&sp);
    return code ? fail(s, code) : 0;
}
