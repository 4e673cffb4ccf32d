/* The batch simulator's per-config engine (see batch.ml).
 *
 * One call runs one configuration against a decoded plan: the cache
 * warm-up, then the event-driven cycle loop of batch.ml's design notes
 * (candidate-list issue, deferred wakeups, the quiet-cycle jump), over
 * the L1I/L1D/L2 caches with all four replacement policies, the
 * next-line L2 prefetch, and the DRAM banks and bus.  It returns integer
 * counters only; every float of [Processor.result] is computed from them
 * in OCaml, with the reference's expressions.
 *
 * The reference model is the OCaml Processor/Memory/Cache/Dram/Fu_pool
 * stack, and the test_sim properties hold this engine to it bit for bit,
 * so each routine below mirrors one of those modules line for line.
 *
 * Memory.  The plan's streams are Bigarrays, allocated outside the OCaml
 * heap, so the engine reads nothing the GC can move and the stub runs
 * the whole config with the domain's runtime released.  Per-config
 * state lives in an engine taken from a small pool and returned after
 * the run, so later configs reuse it; its arrays only ever grow, and
 * Batch.trim empties the pool.  Between runs every
 * cache array is all zero: an invalid tag is stored as 0 (a valid one as
 * tag + 1), and each line that turns valid is logged, so the end of a
 * run clears just the lines it filled (with their ages and their sets'
 * tree bits: a nonzero age or tree only ever belongs to a valid line or
 * its set) instead of refilling the whole L2.
 *
 * OCaml ints are 63 bits wide; addresses are reduced modulo 2^63 before
 * any shift, which is what [lsr] does, so tags, sets and banks match. */

#define CAML_NAME_SPACE
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <limits.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define M63 0x7fffffffffffffffULL

/* Opcode.to_int, and the taken bit batch.ml ors into a plan's op byte. */
enum { OP_LOAD = 6, OP_STORE = 7, OP_BRANCH = 8, OP_JUMP = 9, OP_NOP = 10 };
#define OP_MASK 15
#define TAKEN_BIT 16

/* Cache.Policy, in the order of batch.ml's [policy_code]. */
enum { LRU = 0, TREE_PLRU = 1, QLRU = 2, MRU = 3 };

/* Functional-unit classes (Fu_pool.all_classes) and opcodes.  Which
   class serves which opcode, which classes are pipelined and which is
   the memory port are Fu_pool's to say: batch.ml passes them in. */
#define N_CLASSES 7
#define N_OPCODES 11

/* Layout of the config array batch.ml passes in. */
enum {
  P_PIPE_DEPTH,
  P_ROB,
  P_IQ,
  P_LSQ,
  P_FETCH_W,
  P_ISSUE_W,
  P_COMMIT_W,
  P_LINE_BYTES,
  P_LINE_SHIFT,
  P_IL1_SETS,
  P_IL1_WAYS,
  P_IL1_LAT,
  P_DL1_SETS,
  P_DL1_WAYS,
  P_DL1_LAT,
  P_L2_SETS,
  P_L2_WAYS,
  P_L2_LAT,
  P_POLICY,
  P_PREFETCH,
  P_DRAM_BASE,
  P_DRAM_BANKS,
  P_DRAM_BANK_OCC,
  P_DRAM_BUS_OCC,
  P_FU_COUNT,
  P_FU_LAT = P_FU_COUNT + N_CLASSES,
  P_FU_PIPELINED = P_FU_LAT + N_CLASSES,
  P_FU_OF_OP = P_FU_PIPELINED + N_CLASSES, /* class per opcode, -1 none */
  P_MEM_PORT = P_FU_OF_OP + N_OPCODES,
  P_WARM,
  P_MAX_CYCLES,
  P_COUNT
};

/* Layout of the counter array the engine fills (batch.ml's [r_*]). */
enum {
  R_CYCLES,
  R_IL1_ACC,
  R_IL1_MISS,
  R_DL1_ACC,
  R_DL1_MISS,
  R_L2_ACC,
  R_L2_MISS,
  R_DRAM_ACC,
  R_DRAM_LAT,
  R_OCC_ROB,
  R_OCC_IQ,
  R_OCC_LSQ,
  R_STALL_ROB,
  R_STALL_IQ,
  R_STALL_LSQ,
  R_STALL_ICACHE,
  R_STALL_BRANCH,
  R_STEPPED,
  R_SKIPPED,
  R_ATTEMPTS,
  R_WALK_STEPS,
  R_COUNT
};

/* Run status, decoded by batch.ml. */
enum { ST_OK, ST_CYCLE_LIMIT, ST_NO_MEMORY, ST_OUT_OF_BOUNDS };

/* ------------------------------------------------------------------ */
/* Caches (cache.ml)                                                  */
/* ------------------------------------------------------------------ */

typedef struct {
  uint64_t *tags;  /* set * ways + way; tag + 1, 0 = invalid */
  uint64_t *age;   /* per-line recency state, as Cache.age */
  uint64_t *tree;  /* tree-plru bits per set */
  uint32_t *filled; /* lines turned valid this run, to clear at the end */
  void *block;      /* one mapping holding the four arrays above */
  size_t block_bytes, cap_lines, cap_sets, n_filled;
  uint64_t sets, ways, mask, lines;
  int pow2, shift, policy;
  long latency;
  uint64_t clock;
  long accesses, misses;
  int *fault; /* set when a scan runs off the array, as OCaml would raise */
} cache_t;

/* The cache's arrays live in one private anonymous mapping: zero when
   mapped, resident only where a run touches them, and returned to the
   system whole when a larger config replaces it. */
static int cache_setup(cache_t *c, long sets, long ways, int shift,
                       long latency, int policy, int *fault) {
  size_t lines = (size_t)sets * (size_t)ways;
  if (lines > c->cap_lines || (size_t)sets > c->cap_sets) {
    size_t nl = lines > c->cap_lines ? lines : c->cap_lines;
    size_t ns = (size_t)sets > c->cap_sets ? (size_t)sets : c->cap_sets;
    size_t bytes = nl * (2 * sizeof(uint64_t) + sizeof(uint32_t)) +
                   ns * sizeof(uint64_t);
    void *b = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (b == MAP_FAILED) return 0;
    if (c->block) munmap(c->block, c->block_bytes);
    c->block = b;
    c->block_bytes = bytes;
    c->tags = b;
    c->age = c->tags + nl;
    c->tree = c->age + nl;
    c->filled = (uint32_t *)(c->tree + ns);
    c->cap_lines = nl;
    c->cap_sets = ns;
  }
  c->n_filled = 0;
  c->sets = (uint64_t)sets;
  c->ways = (uint64_t)ways;
  c->lines = lines;
  c->pow2 = (sets & (sets - 1)) == 0;
  c->mask = (uint64_t)sets - 1;
  c->shift = shift;
  c->latency = latency;
  c->policy = policy;
  c->clock = 0;
  c->accesses = 0;
  c->misses = 0;
  c->fault = fault;
  return 1;
}

/* Back to all zero: every line filled this run, with its age and its
   set's tree bits. */
static void cache_clear(cache_t *c) {
  for (size_t k = 0; k < c->n_filled; k++) {
    uint32_t x = c->filled[k];
    c->tags[x] = 0;
    c->age[x] = 0;
    c->tree[x / c->ways] = 0;
  }
  c->n_filled = 0;
}

static inline void cache_fill(cache_t *c, uint64_t x, uint64_t key) {
  /* A valid line never turns invalid within a run, so each line is
     logged at most once and the log fits in [lines] entries. */
  if (c->tags[x] == 0) c->filled[c->n_filled++] = (uint32_t)x;
  c->tags[x] = key;
}

/* Leftmost line from [base] whose age equals [want] (Cache.age_scan).
   The OCaml scan is unbounded within the whole array, so a scan that
   leaves the set continues into the next sets, and one that leaves the
   array is the reference's Invalid_argument. */
static inline uint64_t age_scan(cache_t *c, uint64_t base, uint64_t want) {
  for (uint64_t x = base; x < c->lines; x++)
    if (c->age[x] == want) return x - base;
  *c->fault = 1;
  return 0;
}

static inline long first_invalid(const cache_t *c, uint64_t base) {
  for (uint64_t w = 0; w < c->ways; w++)
    if (c->tags[base + w] == 0) return (long)w;
  return -1;
}

static void tree_touch(cache_t *c, uint64_t set, uint64_t w) {
  uint64_t bits = c->tree[set];
  uint64_t node = 1, lo = 0, span = c->ways;
  while (span > 1) {
    uint64_t half = span / 2;
    if (w - lo < half) {
      bits |= 1ULL << node;
      node = 2 * node;
    } else {
      bits &= ~(1ULL << node);
      lo += half;
      node = 2 * node + 1;
    }
    span = half;
  }
  c->tree[set] = bits;
}

static uint64_t tree_victim(const cache_t *c, uint64_t set) {
  uint64_t bits = c->tree[set];
  uint64_t node = 1, lo = 0, span = c->ways;
  while (span > 1) {
    uint64_t half = span / 2;
    if ((bits & (1ULL << node)) == 0)
      node = 2 * node;
    else {
      lo += half;
      node = 2 * node + 1;
    }
    span = half;
  }
  return lo;
}

static uint64_t qlru_victim(cache_t *c, uint64_t base) {
  uint64_t max_age = 0;
  for (uint64_t w = 0; w < c->ways; w++)
    if (c->age[base + w] > max_age) max_age = c->age[base + w];
  if (max_age < 3) {
    uint64_t bump = 3 - max_age;
    for (uint64_t w = 0; w < c->ways; w++) c->age[base + w] += bump;
  }
  return age_scan(c, base, 3);
}

static void mru_touch(cache_t *c, uint64_t base, uint64_t w) {
  c->age[base + w] = 1;
  for (uint64_t i = 0; i < c->ways; i++)
    if (c->age[base + i] == 0) return;
  memset(c->age + base, 0, c->ways * sizeof *c->age);
  c->age[base + w] = 1;
}

static inline uint64_t set_of(const cache_t *c, uint64_t tag) {
  return c->pow2 ? (tag & c->mask) : (tag % c->sets);
}

/* Cache.access: true on a hit; a miss fills the line. */
static int cache_access(cache_t *c, intnat addr) {
  c->accesses++;
  c->clock++;
  uint64_t tag = ((uint64_t)addr & M63) >> c->shift;
  uint64_t set = set_of(c, tag);
  uint64_t ways = c->ways;
  uint64_t base = set * ways;
  uint64_t key = tag + 1;
  const uint64_t *t = c->tags + base;
  /* A key is in a set at most once, so the scan need not stop at a
     match: a fixed trip count and a conditional move beat an
     unpredictable early exit. */
  uint64_t w = ways;
  for (uint64_t i = 0; i < ways; i++) w = t[i] == key ? i : w;
  int hit = w < ways;
  switch (c->policy) {
    case LRU:
      if (hit) {
        c->age[base + w] = c->clock;
        return 1;
      } else {
        const uint64_t *a = c->age + base;
        uint64_t v = 0;
        for (uint64_t i = 1; i < ways; i++)
          if (a[i] < a[v]) v = i;
        c->misses++;
        cache_fill(c, base + v, key);
        c->age[base + v] = c->clock;
        return 0;
      }
    case TREE_PLRU:
      if (hit) {
        tree_touch(c, set, w);
        return 1;
      } else {
        long f = first_invalid(c, base);
        uint64_t v = f >= 0 ? (uint64_t)f : tree_victim(c, set);
        c->misses++;
        cache_fill(c, base + v, key);
        tree_touch(c, set, v);
        return 0;
      }
    case QLRU:
      if (hit) {
        c->age[base + w] = 0;
        return 1;
      } else {
        long f = first_invalid(c, base);
        uint64_t v = f >= 0 ? (uint64_t)f : qlru_victim(c, base);
        c->misses++;
        if (*c->fault) return 0;
        cache_fill(c, base + v, key);
        c->age[base + v] = 1;
        return 0;
      }
    default: /* MRU */
      if (hit) {
        mru_touch(c, base, w);
        return 1;
      } else {
        long f = first_invalid(c, base);
        uint64_t v = f >= 0 ? (uint64_t)f : age_scan(c, base, 0);
        c->misses++;
        if (*c->fault) return 0;
        cache_fill(c, base + v, key);
        mru_touch(c, base, v);
        return 0;
      }
  }
}

/* Cache.probe */
static int cache_probe(const cache_t *c, intnat addr) {
  uint64_t tag = ((uint64_t)addr & M63) >> c->shift;
  uint64_t base = set_of(c, tag) * c->ways;
  for (uint64_t w = 0; w < c->ways; w++)
    if (c->tags[base + w] == tag + 1) return 1;
  return 0;
}

/* ------------------------------------------------------------------ */
/* DRAM (dram.ml) and the hierarchy (memory.ml)                       */
/* ------------------------------------------------------------------ */

typedef struct {
  long *bank_free;
  size_t cap_banks;
  long banks, base_latency, bank_occupancy, bus_occupancy;
  long bus_free, accesses, total_latency;
} dram_t;

static long dram_access(dram_t *d, long cycle, intnat addr) {
  long bank = (long)((((uint64_t)addr & M63) >> 12) & (uint64_t)(d->banks - 1));
  long start_bank = cycle > d->bank_free[bank] ? cycle : d->bank_free[bank];
  long device_done = start_bank + d->base_latency;
  long start_bus = device_done > d->bus_free ? device_done : d->bus_free;
  long finish = start_bus + d->bus_occupancy;
  d->bank_free[bank] = start_bank + d->bank_occupancy;
  d->bus_free = start_bus + d->bus_occupancy;
  d->accesses++;
  d->total_latency += finish - cycle;
  return finish;
}

typedef struct {
  cache_t il1, dl1, l2;
  dram_t dram;
  int prefetch;
  long line_bytes;
} memory_t;

static long through_l2(memory_t *m, intnat addr, long after_l1) {
  if (cache_access(&m->l2, addr)) return after_l1 + m->l2.latency;
  long start = after_l1 + m->l2.latency;
  long finish = dram_access(&m->dram, start, addr);
  if (m->prefetch) {
    intnat next = addr + m->line_bytes;
    if (!cache_probe(&m->l2, next)) {
      cache_access(&m->l2, next);
      dram_access(&m->dram, start, next);
    }
  }
  return finish;
}

static inline long mem_fetch(memory_t *m, long cycle, intnat addr) {
  long after_l1 = cycle + m->il1.latency;
  if (cache_access(&m->il1, addr)) return after_l1;
  return through_l2(m, addr, after_l1);
}

static inline long mem_load(memory_t *m, long cycle, intnat addr) {
  long after_l1 = cycle + m->dl1.latency;
  if (cache_access(&m->dl1, addr)) return after_l1;
  return through_l2(m, addr, after_l1);
}

static inline void mem_store(memory_t *m, long cycle, intnat addr) {
  if (!cache_access(&m->dl1, addr))
    if (!cache_access(&m->l2, addr)) dram_access(&m->dram, cycle, addr);
}

/* ------------------------------------------------------------------ */
/* Engines and their pool                                             */
/* ------------------------------------------------------------------ */

typedef struct {
  memory_t mem;
  int fault;
  /* window slots, [slot_size] = the next power of two >= rob */
  long *slot_complete, *pend, *ready_t;
  size_t cap_slots;
  /* candidate list and this cycle's issued producers, [rob] each */
  long *cand_i, *cand_t, *issued_now;
  size_t cap_window;
  /* unpipelined units' busy-until cycles */
  long *busy;
  size_t cap_busy;
} engine_t;

/* Make [*p] hold at least [want] longs; 0 on failure, when [*p] is
   left as it was. */
static int grow(long **p, size_t want) {
  long *q = realloc(*p, want * sizeof(long));
  if (!q) return 0;
  *p = q;
  return 1;
}

static void engine_free(engine_t *e) {
  cache_t *cs[3] = {&e->mem.il1, &e->mem.dl1, &e->mem.l2};
  for (int k = 0; k < 3; k++)
    if (cs[k]->block) munmap(cs[k]->block, cs[k]->block_bytes);
  free(e->mem.dram.bank_free);
  free(e->slot_complete);
  free(e->pend);
  free(e->ready_t);
  free(e->cand_i);
  free(e->cand_t);
  free(e->issued_now);
  free(e->busy);
  free(e);
}

/* Idle engines, one per domain that has simulated at the most.  Runs
   reuse them, so a config's caches start from pages already resident;
   [archpred_batch_trim] (Batch.trim) frees them when a stretch of
   simulation ends. */
#define POOL_MAX 64
static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;
static engine_t *pool[POOL_MAX];
static int pool_n = 0;

static engine_t *engine_take(void) {
  engine_t *e = NULL;
  pthread_mutex_lock(&pool_lock);
  if (pool_n > 0) e = pool[--pool_n];
  pthread_mutex_unlock(&pool_lock);
  return e ? e : calloc(1, sizeof(engine_t));
}

static void engine_give(engine_t *e) {
  pthread_mutex_lock(&pool_lock);
  if (pool_n < POOL_MAX) {
    pool[pool_n++] = e;
    e = NULL;
  }
  pthread_mutex_unlock(&pool_lock);
  if (e) engine_free(e);
}

/* ------------------------------------------------------------------ */
/* The per-config walk (batch.ml's design notes; Processor.run)       */
/* ------------------------------------------------------------------ */

typedef struct {
  long n;
  const uint8_t *op;         /* opcode | TAKEN_BIT */
  const int32_t *dep;        /* 2n: absolute producers, -1 = none */
  const int32_t *prev_store; /* nearest older store, -1 = none */
  const intnat *addr;
  const intnat *pc;
  const int32_t *cons_start; /* n + 1 CSR row starts */
  const int32_t *cons;
  const uint8_t *mis; /* the config's mispredict stream */
} streams_t;

enum { NO_STALL, ICACHE_STALL, BRANCH_STALL };
enum { NO_STRUCT, ROB_FULL, IQ_FULL, LSQ_FULL };

/* A window slot's completion cycle before it issues: later than any
   cycle, so "issued and complete before now" is one comparison. */
#define UNISSUED LONG_MAX

/* Store-queue walk for a load (Processor.run's store_scan): -1 no
   older in-window store, -2 blocked on an unissued one, else the
   forwarding store's completion. */
static inline long store_walk(const intnat *addrs, const int32_t *prev_store,
                              const long *complete, long mask, long head,
                              intnat addr, long pr, long *steps) {
  while (pr >= head) {
    long c = complete[pr & mask];
    (*steps)++;
    if (c == UNISSUED) return -2;
    if (addrs[pr] == addr) return c;
    pr = prev_store[pr];
  }
  return -1;
}

static int run_config(engine_t *e, const streams_t *s, const long *p,
                      long *r) {
  memory_t *m = &e->mem;
  const long n = s->n;
  const long rob = p[P_ROB];
  const int line_shift = (int)p[P_LINE_SHIFT];
  const int policy = (int)p[P_POLICY];
  long slot_size = 1;
  while (slot_size < rob) slot_size *= 2;
  const long mask = slot_size - 1;

  int fu_of_op[N_OPCODES], pipelined[N_CLASSES];
  for (int o = 0; o < N_OPCODES; o++) fu_of_op[o] = (int)p[P_FU_OF_OP + o];
  for (int c = 0; c < N_CLASSES; c++) pipelined[c] = (int)p[P_FU_PIPELINED + c];
  const int mem_port = (int)p[P_MEM_PORT];
  long units = 0;
  for (int c = 0; c < N_CLASSES; c++)
    if (!pipelined[c]) units += p[P_FU_COUNT + c];

  e->fault = 0;
  if (!cache_setup(&m->il1, p[P_IL1_SETS], p[P_IL1_WAYS], line_shift,
                   p[P_IL1_LAT], policy, &e->fault) ||
      !cache_setup(&m->dl1, p[P_DL1_SETS], p[P_DL1_WAYS], line_shift,
                   p[P_DL1_LAT], policy, &e->fault) ||
      !cache_setup(&m->l2, p[P_L2_SETS], p[P_L2_WAYS], line_shift,
                   p[P_L2_LAT], policy, &e->fault))
    return ST_NO_MEMORY;
  /* Capacities are committed only once every array of a group has
     grown, so a failed [realloc] is retried on the next run. */
  if ((size_t)p[P_DRAM_BANKS] > m->dram.cap_banks) {
    if (!grow(&m->dram.bank_free, (size_t)p[P_DRAM_BANKS]))
      return ST_NO_MEMORY;
    m->dram.cap_banks = (size_t)p[P_DRAM_BANKS];
  }
  if ((size_t)slot_size > e->cap_slots) {
    if (!grow(&e->slot_complete, (size_t)slot_size) ||
        !grow(&e->pend, (size_t)slot_size) ||
        !grow(&e->ready_t, (size_t)slot_size))
      return ST_NO_MEMORY;
    e->cap_slots = (size_t)slot_size;
  }
  if ((size_t)rob > e->cap_window) {
    if (!grow(&e->cand_i, (size_t)rob) || !grow(&e->cand_t, (size_t)rob) ||
        !grow(&e->issued_now, (size_t)rob))
      return ST_NO_MEMORY;
    e->cap_window = (size_t)rob;
  }
  if ((size_t)units > e->cap_busy) {
    if (!grow(&e->busy, (size_t)units))
      return ST_NO_MEMORY;
    e->cap_busy = (size_t)units;
  }

  dram_t *d = &m->dram;
  d->banks = p[P_DRAM_BANKS];
  d->base_latency = p[P_DRAM_BASE];
  d->bank_occupancy = p[P_DRAM_BANK_OCC];
  d->bus_occupancy = p[P_DRAM_BUS_OCC];
  d->bus_free = 0;
  d->accesses = 0;
  d->total_latency = 0;
  memset(d->bank_free, 0, (size_t)d->banks * sizeof(long));
  m->prefetch = (int)p[P_PREFETCH];
  m->line_bytes = p[P_LINE_BYTES];

  /* ---- warm-up: the trace's reference streams, untimed ---- */
  if (p[P_WARM]) {
    long cur_line = -1;
    for (long i = 0; i < n; i++) {
      intnat pc = s->pc[i];
      long line = (long)(((uint64_t)pc & M63) >> line_shift);
      if (line != cur_line) {
        cur_line = line;
        mem_fetch(m, 0, pc);
      }
      int o = s->op[i] & OP_MASK;
      if (o == OP_LOAD)
        mem_load(m, 0, s->addr[i]);
      else if (o == OP_STORE)
        mem_store(m, 0, s->addr[i]);
    }
    m->il1.accesses = m->il1.misses = 0;
    m->dl1.accesses = m->dl1.misses = 0;
    m->l2.accesses = m->l2.misses = 0;
    d->accesses = 0;
    d->total_latency = 0;
  }

  /* ---- functional units (Fu_pool, flat) ---- */
  long fu_count[N_CLASSES], fu_lat[N_CLASSES], busy_off[N_CLASSES];
  long granted[N_CLASSES], granted_at[N_CLASSES];
  {
    long off = 0;
    for (int c = 0; c < N_CLASSES; c++) {
      fu_count[c] = p[P_FU_COUNT + c];
      fu_lat[c] = p[P_FU_LAT + c];
      granted[c] = 0;
      granted_at[c] = -1;
      busy_off[c] = off;
      if (!pipelined[c]) off += fu_count[c];
    }
  }
  long *busy = e->busy;
  if (units > 0) memset(busy, 0, (size_t)units * sizeof(long));
#define FU_ISSUE(c, now, ok)                                   \
  do {                                                         \
    int c_ = (c);                                              \
    if (pipelined[c_]) {                                       \
      if (granted_at[c_] != (now)) {                           \
        granted_at[c_] = (now);                                \
        granted[c_] = 0;                                       \
      }                                                        \
      (ok) = granted[c_] < fu_count[c_];                       \
      if (ok) granted[c_]++;                                   \
    } else {                                                   \
      long u_ = busy_off[c_], hi_ = u_ + fu_count[c_];         \
      while (u_ < hi_ && busy[u_] > (now)) u_++;               \
      (ok) = u_ < hi_;                                         \
      if (ok) busy[u_] = (now) + fu_lat[c_];                   \
    }                                                          \
  } while (0)

  const long commit_width = p[P_COMMIT_W];
  const long issue_width = p[P_ISSUE_W];
  const long fetch_width = p[P_FETCH_W];
  const long iq_size = p[P_IQ];
  const long lsq_size = p[P_LSQ];
  const long il1_latency = p[P_IL1_LAT];
  const long pipe_depth = p[P_PIPE_DEPTH];
  const long issue_delay = pipe_depth / 4 > 1 ? pipe_depth / 4 : 1;
  const long max_cycles = p[P_MAX_CYCLES];
  /* The streams as locals: stores through the engine's own arrays
     cannot then force them to be reloaded. */
  const uint8_t *const ops = s->op, *const mis = s->mis;
  const int32_t *const dep = s->dep, *const prev_store = s->prev_store;
  const int32_t *const cons_start = s->cons_start, *const cons = s->cons;
  const intnat *const addrs = s->addr, *const pcs = s->pc;

  long *slot_complete = e->slot_complete, *pend = e->pend;
  long *ready_t = e->ready_t;
  long *cand_i = e->cand_i, *cand_t = e->cand_t, *issued_now = e->issued_now;
  memset(slot_complete, 0, (size_t)slot_size * sizeof(long));
  memset(pend, 0, (size_t)slot_size * sizeof(long));
  memset(ready_t, 0, (size_t)slot_size * sizeof(long));
  long cand_n = 0;

  long head = 0, tail = 0, iq_occ = 0, lsq_occ = 0, committed = 0;
  long cycle = 0, fetch_resume = 0, cur_line = -1;
  int stall_reason = NO_STALL;
  long stall_rob = 0, stall_iq = 0, stall_lsq = 0;
  long stall_icache = 0, stall_branch = 0;
  long occ_rob = 0, occ_iq = 0, occ_lsq = 0;
  long stepped = 0, skipped = 0, attempts_total = 0, walk_steps = 0;
  int status = ST_OK;

  while (committed < n) {
    const long now = cycle;
    if (e->fault) {
      status = ST_OUT_OF_BOUNDS;
      break;
    }
    if (now > max_cycles) {
      status = ST_CYCLE_LIMIT;
      break;
    }
    stepped++;

    /* ---- commit: in order, completed strictly before this cycle ---- */
    int commit_progress = 0;
    for (long quota = commit_width; quota > 0 && head < tail; quota--) {
      long hs = head & mask;
      if (slot_complete[hs] >= now) break; /* also while unissued */
      int o = ops[head] & OP_MASK;
      if (o == OP_STORE) {
        mem_store(m, now, addrs[head]);
        lsq_occ--;
      } else if (o == OP_LOAD)
        lsq_occ--;
      head++;
      committed++;
      commit_progress = 1;
    }

    /* ---- issue: the candidate walk, in instruction order ---- */
    long attempts = 0, issued_n = 0;
    if (cand_n > 0) {
      long budget = issue_width, kept = 0;
      for (long r = 0; r < cand_n; r++) {
        long i = cand_i[r], t = cand_t[r];
        if (budget > 0 && t <= now) {
          attempts++;
          long si = i & mask;
          int o = ops[i] & OP_MASK;
          long complete;
          int ok;
          if (o == OP_LOAD) {
            long sc = store_walk(addrs, prev_store, slot_complete, mask, head,
                                 addrs[i], prev_store[i], &walk_steps);
            if (sc == -2)
              complete = -1;
            else {
              FU_ISSUE(mem_port, now, ok);
              if (!ok)
                complete = -1;
              else if (sc >= 0)
                complete = sc + 1 > now + 1 ? sc + 1 : now + 1;
              else
                complete = mem_load(m, now, addrs[i]);
            }
          } else if (o == OP_STORE) {
            FU_ISSUE(mem_port, now, ok);
            complete = ok ? now + 1 : -1;
          } else {
            int c = fu_of_op[o];
            if (c < 0)
              complete = now;
            else {
              FU_ISSUE(c, now, ok);
              complete = ok ? now + fu_lat[c] : -1;
            }
          }
          if (complete >= 0) {
            slot_complete[si] = complete;
            iq_occ--;
            budget--;
            if (mis[i]) fetch_resume = complete + pipe_depth;
            issued_now[issued_n++] = i;
            continue;
          }
        }
        cand_i[kept] = i;
        cand_t[kept] = t;
        kept++;
      }
      cand_n = kept;
      /* Wakeups after the walk: every completion lies past [now]. */
      for (long k = 0; k < issued_n; k++) {
        long dd = issued_now[k];
        long complete = slot_complete[dd & mask];
        for (long q = cons_start[dd]; q < cons_start[dd + 1]; q++) {
          long j = cons[q];
          if (j >= tail) continue;
          long js = j & mask;
          if (slot_complete[js] != UNISSUED) continue;
          if (complete > ready_t[js]) ready_t[js] = complete;
          if (--pend[js] == 0) {
            long at = cand_n, tj = ready_t[js];
            while (at > 0 && cand_i[at - 1] > j) {
              cand_i[at] = cand_i[at - 1];
              cand_t[at] = cand_t[at - 1];
              at--;
            }
            cand_i[at] = j;
            cand_t[at] = tj;
            cand_n++;
          }
        }
      }
    }
    attempts_total += attempts;

    /* ---- fetch/dispatch: in order, up to fetch_width ---- */
    int fetch_progress = 0, struct_stall = NO_STRUCT;
    if (now >= fetch_resume) {
      stall_reason = NO_STALL;
      for (long quota = fetch_width; quota > 0 && tail < n; quota--) {
        long i = tail;
        if (tail - head >= rob) {
          stall_rob++;
          struct_stall = ROB_FULL;
          break;
        }
        int ob = ops[i], o = ob & OP_MASK;
        int is_mem = o == OP_LOAD || o == OP_STORE;
        if (o != OP_NOP && iq_occ >= iq_size) {
          stall_iq++;
          struct_stall = IQ_FULL;
          break;
        }
        if (is_mem && lsq_occ >= lsq_size) {
          stall_lsq++;
          struct_stall = LSQ_FULL;
          break;
        }
        intnat pc = pcs[i];
        long line = (long)(((uint64_t)pc & M63) >> line_shift);
        if (line != cur_line) {
          cur_line = line;
          fetch_progress = 1;
          long ready = mem_fetch(m, now, pc);
          if (ready > now + il1_latency) {
            fetch_resume = ready;
            stall_reason = ICACHE_STALL;
            break;
          }
        }
        long si = i & mask;
        if (o == OP_NOP) {
          slot_complete[si] = now;
        } else {
          slot_complete[si] = UNISSUED;
          iq_occ++;
          long dt = now + issue_delay, dp = 0;
          for (int k = 0; k < 2; k++) {
            long dk = dep[2 * i + k];
            if (dk >= head) { /* also excludes -1: head >= 0 */
              long c = slot_complete[dk & mask];
              if (c == UNISSUED)
                dp++;
              else if (c > dt)
                dt = c;
            }
          }
          pend[si] = dp;
          ready_t[si] = dt;
          if (dp == 0) {
            cand_i[cand_n] = i;
            cand_t[cand_n] = dt;
            cand_n++;
          }
        }
        if (is_mem) lsq_occ++;
        tail = i + 1;
        fetch_progress = 1;
        if (o == OP_BRANCH || o == OP_JUMP) {
          if (mis[i]) {
            fetch_resume = LONG_MAX;
            stall_reason = BRANCH_STALL;
            break;
          }
          if (ob & TAKEN_BIT) break;
        }
      }
    } else if (stall_reason == ICACHE_STALL)
      stall_icache++;
    else if (stall_reason == BRANCH_STALL)
      stall_branch++;

    occ_rob += tail - head;
    occ_iq += iq_occ;
    occ_lsq += lsq_occ;

    if (commit_progress || issued_n > 0 || fetch_progress) {
      cycle++;
      continue;
    }
    /* Quiet cycle: nothing retired, issued or fetched, so every cycle up
       to the next possible event replays it exactly.  Jump there,
       multiplying the per-cycle counters by the cycles skipped.  The
       events: the head's commit; a candidate's attempt cycle, for those
       not yet due; a divider freeing up, for a due candidate refused a
       unit.  A due candidate's attempt failed and fails again until one
       of these: with nothing issued this cycle no pipelined class gave
       out a grant, so only a unit with a zero count refuses one (for
       ever), and a load blocked on an older store waits for that
       store to issue, itself a later event. */
    long hs = head & mask;
    long target = head < tail && slot_complete[hs] != UNISSUED
                      ? slot_complete[hs] + 1
                      : LONG_MAX;
    for (long r = 0; r < cand_n; r++)
      if (cand_t[r] > now && cand_t[r] < target) target = cand_t[r];
    for (long u = 0; u < units; u++)
      if (busy[u] > now && busy[u] < target) target = busy[u];
    if (now < fetch_resume && fetch_resume < target) target = fetch_resume;
    if (max_cycles < LONG_MAX && max_cycles + 1 < target)
      target = max_cycles + 1;
    if (target <= now) target = now + 1;
    long k = target - now - 1;
    if (k > 0) {
      occ_rob += k * (tail - head);
      occ_iq += k * iq_occ;
      occ_lsq += k * lsq_occ;
      if (now < fetch_resume) {
        if (stall_reason == ICACHE_STALL)
          stall_icache += k;
        else if (stall_reason == BRANCH_STALL)
          stall_branch += k;
      } else if (struct_stall == ROB_FULL)
        stall_rob += k;
      else if (struct_stall == IQ_FULL)
        stall_iq += k;
      else if (struct_stall == LSQ_FULL)
        stall_lsq += k;
      skipped += k;
    }
    cycle = target;
  }
#undef FU_ISSUE
  if (status == ST_OK && e->fault) status = ST_OUT_OF_BOUNDS;

  r[R_CYCLES] = cycle;
  r[R_IL1_ACC] = m->il1.accesses;
  r[R_IL1_MISS] = m->il1.misses;
  r[R_DL1_ACC] = m->dl1.accesses;
  r[R_DL1_MISS] = m->dl1.misses;
  r[R_L2_ACC] = m->l2.accesses;
  r[R_L2_MISS] = m->l2.misses;
  r[R_DRAM_ACC] = d->accesses;
  r[R_DRAM_LAT] = d->total_latency;
  r[R_OCC_ROB] = occ_rob;
  r[R_OCC_IQ] = occ_iq;
  r[R_OCC_LSQ] = occ_lsq;
  r[R_STALL_ROB] = stall_rob;
  r[R_STALL_IQ] = stall_iq;
  r[R_STALL_LSQ] = stall_lsq;
  r[R_STALL_ICACHE] = stall_icache;
  r[R_STALL_BRANCH] = stall_branch;
  r[R_STEPPED] = stepped;
  r[R_SKIPPED] = skipped;
  r[R_ATTEMPTS] = attempts_total;
  r[R_WALK_STEPS] = walk_steps;
  return status;
}

/* batch.ml's [plan] record, field by field. */
enum {
  F_N,
  F_OP,
  F_DEP,
  F_PREV_STORE,
  F_ADDR,
  F_PC,
  F_TARGET,
  F_CONS_START,
  F_CONS
};

CAMLprim value archpred_batch_simulate(value v_plan, value v_mis,
                                       value v_params, value v_out) {
  CAMLparam4(v_plan, v_mis, v_params, v_out);
  if (Wosize_val(v_params) != P_COUNT || Wosize_val(v_out) != R_COUNT)
    caml_invalid_argument("Batch.simulate: parameter layout");
  streams_t s;
  s.n = Long_val(Field(v_plan, F_N));
  s.op = Caml_ba_data_val(Field(v_plan, F_OP));
  s.dep = Caml_ba_data_val(Field(v_plan, F_DEP));
  s.prev_store = Caml_ba_data_val(Field(v_plan, F_PREV_STORE));
  s.addr = Caml_ba_data_val(Field(v_plan, F_ADDR));
  s.pc = Caml_ba_data_val(Field(v_plan, F_PC));
  s.cons_start = Caml_ba_data_val(Field(v_plan, F_CONS_START));
  s.cons = Caml_ba_data_val(Field(v_plan, F_CONS));
  s.mis = Caml_ba_data_val(v_mis);
  long p[P_COUNT], r[R_COUNT];
  for (int k = 0; k < P_COUNT; k++) p[k] = Long_val(Field(v_params, k));
  memset(r, 0, sizeof r);
  /* The plan's Bigarrays stay alive through the roots above, and their
     data never moves, so the run needs nothing from the runtime. */
  caml_release_runtime_system();
  engine_t *e = engine_take();
  int status = ST_NO_MEMORY;
  if (e) {
    status = run_config(e, &s, p, r);
    cache_clear(&e->mem.il1);
    cache_clear(&e->mem.dl1);
    cache_clear(&e->mem.l2);
    engine_give(e);
  }
  caml_acquire_runtime_system();
  for (int k = 0; k < R_COUNT; k++) Store_field(v_out, k, Val_long(r[k]));
  CAMLreturn(Val_int(status));
}

CAMLprim value archpred_batch_trim(value unit) {
  (void)unit;
  engine_t *idle[POOL_MAX];
  pthread_mutex_lock(&pool_lock);
  int k = pool_n;
  memcpy(idle, pool, (size_t)k * sizeof *idle);
  pool_n = 0;
  pthread_mutex_unlock(&pool_lock);
  while (k > 0) engine_free(idle[--k]);
  return Val_unit;
}
