/* Compiled event-core tier: the SoA kernel's hot loop in C.
 *
 * This module implements exactly one thing: `run_fast(sim)`, a C port
 * of `repro.engine.soa.SoaSimulator._run_fast`.  It operates on the
 * *same* Python-side state (heap list, ring deque, row columns,
 * process table) so every method-form push that runs inside a process
 * resumption -- `Event.succeed`, `Resource.release`, `spawn`,
 * `flat_transmit`, epoch compaction -- keeps working unchanged, and
 * the executed event sequence is bit-identical to the pure-Python
 * kernels (the cross-kernel parity tests pin this).
 *
 * What the C loop removes is the per-event interpreter work: word
 * decode, tag dispatch, the generator `send` call, and the yield
 * dispatch all run as straight-line C with no Python frames.  Flat
 * ops (see soa.py) execute natively too: link stepping, home-lock
 * attempts, settle accounting, leg transitions, contended handoffs to
 * parked flat ops, the counting invalidation join, and transaction
 * completion run as C over the shared op table, so a remote miss runs
 * start-to-finish without entering the interpreter, queued or not.
 * Python is called out to only where the model itself lives -- the
 * directory plan callouts and writeback posts -- and on rare paths:
 * `home == node` invalidation rounds (`_spawn_inv`), late joiners
 * (`_flat_join_late`), releases whose queue head is a process or
 * Event waiter (`release()`), and failures (`_flat_fail`).
 *
 * Contract with the Python wrapper (repro/engine/compiled.py):
 *
 *   run_fast(sim) -> 1   queues drained; the wrapper performs the
 *                        deadlock check and returns sim._now.
 *   run_fast(sim) -> 0   an int64-range guard tripped (a heap key or
 *                        simulated time beyond ~2**31 ns per epoch
 *                        bit-budget); all counters are flushed and the
 *                        wrapper hands off to the pure-Python loop,
 *                        which handles arbitrary-precision ints.
 *
 * Deliberate choices, so future edits do not regress parity:
 *
 *  - The heap is a native binary heap over the same Python list the
 *    pure loop feeds through heapq, with PyObject_RichCompareBool
 *    comparisons (so arbitrary-precision keys pushed by nested Python
 *    handlers still order correctly).  The sift direction differs
 *    from heapq's bottom-up variant, so the *array layout* can
 *    diverge -- but heap keys are unique (the row field is a monotone
 *    sequence number), so the pop ORDER is identical regardless of
 *    layout, and epoch compaction sorts the pending keys anyway.
 *  - Every heap pop runs the kernels' monotonicity check: the key may
 *    not lie in the past and must sit strictly below the new root.
 *    Violations raise InvariantError("monotonicity", ...), the type
 *    injected by configure().  Pushes made here only add non-negative
 *    delays, so the past-schedule check lives in the Python push
 *    entry points alone.
 *  - `_c_meta` (an array('q')) is accessed through the sequence
 *    protocol, never the buffer protocol: a held buffer export would
 *    make compaction's in-place `extend` raise BufferError.
 *  - Container references are cached once (compaction mutates them in
 *    place), but list *items* are re-read through the macros on every
 *    use and INCREF'd before any call-out.
 *  - `self._now` is written through on every time advance and
 *    `self._top` on every row allocation, because nested method-form
 *    pushes share the clock and the allocator mid-iteration.
 *  - Generator sends use the call + catch-StopIteration path (not
 *    PyIter_Send, which is 3.10+); the supported floor is CPython 3.9.
 *  - Ring words or yields that fall outside the int64 fast path are
 *    delegated to the bound Python methods (`_execute_word`,
 *    `_handle_yield`), which implement the slow cases with Python
 *    ints at the exact same queue positions.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Mirrors of the constants in repro/engine/core.py + soa.py.  Checked
 * against the Python values at configure() time. */
#define ROW_BITS 32
#define ROW_MASK ((int64_t)((((int64_t)1) << ROW_BITS) - 1))
#define PROC_BITS 20
#define PROC_MASK ((int64_t)((1 << PROC_BITS) - 1))
#define VAL_SHIFT (3 + PROC_BITS)

/* Ring word tags (bit 0 set). */
#define R_NONE 1
#define R_ZERO 3
#define R_VAL 5
#define R_FLAT 7

/* Row kinds (meta & 7). */
#define K_RESUME_NONE 0
#define K_EVENT 3
#define K_EVWAIT 4
#define K_FLAT 6

/* Flat-op program tags (op[11]); mirrors of the F_* values in soa.py. */
#define F_XMIT 0
#define F_RD_REQ 1
#define F_RD_LOCK 2
#define F_RD_MEM 3
#define F_RD_FWD 4
#define F_RD_HIT 5
#define F_RD_DATA 6
#define F_WR_REQ 7
#define F_WR_LOCK 8
#define F_WR_MEM 9
#define F_WR_FWD 10
#define F_WR_WAIT 11
#define F_WR_GRANT 12
#define F_WR_DATA 13
#define F_WR_HIT 14

/* Largest simulated time whose packed heap key (at << ROW_BITS | row)
 * still fits a signed 64-bit int.  Beyond it the loop hands back to
 * the pure-Python kernel. */
#define MAX_AT ((((int64_t)1) << (63 - ROW_BITS)) - 1)

/* Injected by configure(): types/singletons from repro.engine.core. */
static PyObject *g_acquirable = NULL;
static PyObject *g_event = NULL;
static PyObject *g_turn = NULL;
static PyObject *g_simerror = NULL;
static PyObject *g_inverror = NULL;
static PyObject *g_flat_tx = NULL;
static int g_configured = 0;

/* Interned attribute/method names. */
static PyObject *s_heap, *s_ring, *s_free, *s_c_meta, *s_payload,
    *s_sends, *s_popleft, *s_append, *s_now, *s_top, *s_cap, *s_compact,
    *s_finish, *s_crash, *s_flat_wake, *s_handle_yield,
    *s_throw, *s_execute_word, *s_dispatch, *s_callbacks, *s_exception,
    *s_value, *s_in_use, *s_capacity, *s_waiters, *s_grants,
    *s_events_executed, *s_ring_executed, *s_ring_scheduled,
    *s_rows_recycled, *s_blocked, *s_succeed, *s_release, *s_messages,
    *s_bytes_carried, *s_busy_ns, *s_bytes_transported,
    *s_total_latency_ns, *s_total_contention_ns, *s_flat_ops,
    *s_flat_free, *s_pending_flat_op, *s_flat_join_late,
    *s_post_fast, *s_post_writeback, *s_source, *s_from_memory,
    *s_sharing_writeback, *s_had_data, *s_writeback, *s_shwb,
    *s_flat_fail, *s_invalidated, *s_fast, *s_hit,
    *s_flat_posts, *s_flat_tx, *s_flat_mctx, *s_triggered,
    *s_spawn_inv, *s_name, *s_total_wait_ns;

/* -- small helpers ------------------------------------------------------- */

static int
get_int_attr(PyObject *o, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    long long x;
    if (v == NULL)
        return -1;
    x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return 0;
}

static int
set_int_attr(PyObject *o, PyObject *name, int64_t v)
{
    PyObject *num = PyLong_FromLongLong((long long)v);
    int rc;
    if (num == NULL)
        return -1;
    rc = PyObject_SetAttr(o, name, num);
    Py_DECREF(num);
    return rc;
}

static int
add_int_attr(PyObject *o, PyObject *name, int64_t delta)
{
    int64_t cur;
    if (delta == 0)
        return 0;
    if (get_int_attr(o, name, &cur) < 0)
        return -1;
    return set_int_attr(o, name, cur + delta);
}

static int
list_append_int(PyObject *list, int64_t v)
{
    PyObject *num = PyLong_FromLongLong((long long)v);
    int rc;
    if (num == NULL)
        return -1;
    rc = PyList_Append(list, num);
    Py_DECREF(num);
    return rc;
}

/* c_meta (array('q')) access via the sequence protocol -- see the file
 * comment for why not the buffer protocol. */
static int
seq_get_int(PyObject *seq, int64_t idx, int64_t *out)
{
    PyObject *v = PySequence_GetItem(seq, (Py_ssize_t)idx);
    long long x;
    if (v == NULL)
        return -1;
    x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return 0;
}

static int
seq_set_int(PyObject *seq, int64_t idx, int64_t v)
{
    PyObject *num = PyLong_FromLongLong((long long)v);
    int rc;
    if (num == NULL)
        return -1;
    rc = PySequence_SetItem(seq, (Py_ssize_t)idx, num);
    Py_DECREF(num);
    return rc;
}

/* payload[row] = None, keeping the previous item alive only if the
 * caller INCREF'd it first (PyList_SetItem decrefs the old slot). */
static int
payload_clear(PyObject *payload, int64_t row)
{
    Py_INCREF(Py_None);
    return PyList_SetItem(payload, (Py_ssize_t)row, Py_None);
}

/* Call bound(int_arg) discarding the result. */
static int
call_bound_i(PyObject *bound, int64_t arg)
{
    PyObject *num = PyLong_FromLongLong((long long)arg);
    PyObject *r;
    if (num == NULL)
        return -1;
    r = PyObject_CallOneArg(bound, num);
    Py_DECREF(num);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Call bound(int_arg, obj_arg) discarding the result. */
static int
call_bound_io(PyObject *bound, int64_t arg, PyObject *obj)
{
    PyObject *num = PyLong_FromLongLong((long long)arg);
    PyObject *r;
    if (num == NULL)
        return -1;
    r = PyObject_CallFunctionObjArgs(bound, num, obj, NULL);
    Py_DECREF(num);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Append a packed int word to the ring via the cached bound append. */
static int
ring_append_word(PyObject *ring_append, int64_t word)
{
    PyObject *num = PyLong_FromLongLong((long long)word);
    PyObject *r;
    if (num == NULL)
        return -1;
    r = PyObject_CallOneArg(ring_append, num);
    Py_DECREF(num);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Allocate a fresh monotone row from self._top, compacting when the
 * table is full -- the C twin of the inline allocator in _run_fast.
 * Returns the row index, or -1 with an exception set. */
static int64_t
alloc_top_row(PyObject *sim, PyObject *compact_m)
{
    int64_t top, cap;
    if (get_int_attr(sim, s_top, &top) < 0)
        return -1;
    if (get_int_attr(sim, s_cap, &cap) < 0)
        return -1;
    if (top == cap) {
        PyObject *r = PyObject_CallNoArgs(compact_m);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (get_int_attr(sim, s_top, &top) < 0)
            return -1;
    }
    if (set_int_attr(sim, s_top, top + 1) < 0)
        return -1;
    return top;
}

/* Native binary-heap ops on the shared Python list.  Comparisons go
 * through PyObject_RichCompareBool so big-int keys (pushed by nested
 * Python handlers past the int64 range) still order correctly; for
 * the common two-machine-int case CPython compares them without
 * allocating.  Layout may diverge from heapq's (see file comment) --
 * pop order cannot, because keys are unique. */

static int
heap_push_native(PyObject *heap, PyObject *item)
{
    Py_ssize_t pos;
    PyObject *newitem;
    if (PyList_Append(heap, item) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = PyObject_RichCompareBool(newitem, parent, Py_LT);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(parent);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SetItem(heap, pos, newitem);  /* steals our extra ref */
    return 0;
}

/* Raise InvariantError("monotonicity", now, detail); always returns -1. */
static int
monotonicity_violation(int64_t now, PyObject *detail)
{
    PyObject *exc;
    if (detail == NULL)
        return -1;
    exc = PyObject_CallFunction(g_inverror, "sLO", "monotonicity",
                                (long long)now, detail);
    Py_DECREF(detail);
    if (exc != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
    return -1;
}

/* Per-pop order check (mirrors soa.py): the popped key must sit
 * strictly below the new heap root.  Keys are unique, so an equal or
 * smaller root means a duplicated or reordered heap entry.  A root
 * beyond int64 is necessarily larger.  Returns 0, or -1 with the
 * InvariantError set. */
static int
heap_check_order(PyObject *heap, int64_t key, int64_t now)
{
    int overflow = 0;
    long long root;
    if (PyList_GET_SIZE(heap) == 0)
        return 0;
    root = PyLong_AsLongLongAndOverflow(PyList_GET_ITEM(heap, 0),
                                        &overflow);
    if (overflow > 0)
        return 0;
    if (root == -1 && PyErr_Occurred())
        return -1;
    if (overflow == 0 && root > key)
        return 0;
    return monotonicity_violation(now, PyUnicode_FromFormat(
        "event order regressed: step (t=%lld, row=%lld) popped with "
        "(t=%lld, row=%lld) still at the heap root",
        (long long)(key >> ROW_BITS), (long long)(key & ROW_MASK),
        (long long)(root >> ROW_BITS), (long long)(root & ROW_MASK)));
}

/* Pop the root; the caller checked the heap is non-empty.  Returns a
 * new reference, or NULL with an exception set. */
static PyObject *
heap_pop_native(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t pos;
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    PyObject *returnitem;
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    n -= 1;
    if (n == 0)
        return lastelt;
    returnitem = PyList_GET_ITEM(heap, 0);
    Py_INCREF(returnitem);
    PyList_SetItem(heap, 0, lastelt);  /* steals lastelt */
    pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        Py_ssize_t right = child + 1;
        PyObject *a, *b;
        int lt;
        if (child >= n)
            break;
        if (right < n) {
            lt = PyObject_RichCompareBool(PyList_GET_ITEM(heap, right),
                                          PyList_GET_ITEM(heap, child),
                                          Py_LT);
            if (lt < 0)
                goto fail;
            if (lt)
                child = right;
        }
        lt = PyObject_RichCompareBool(PyList_GET_ITEM(heap, child),
                                      PyList_GET_ITEM(heap, pos), Py_LT);
        if (lt < 0)
            goto fail;
        if (!lt)
            break;
        a = PyList_GET_ITEM(heap, pos);
        b = PyList_GET_ITEM(heap, child);
        Py_INCREF(a);
        Py_INCREF(b);
        PyList_SetItem(heap, pos, b);
        PyList_SetItem(heap, child, a);
        pos = child;
    }
    return returnitem;
fail:
    Py_DECREF(returnitem);
    return NULL;
}

static int
flush_counters(PyObject *sim, int64_t executed, int64_t ring_exec,
               int64_t ring_sched, int64_t recycled)
{
    if (add_int_attr(sim, s_events_executed, executed) < 0)
        return -1;
    if (add_int_attr(sim, s_ring_executed, ring_exec) < 0)
        return -1;
    if (add_int_attr(sim, s_ring_scheduled, ring_sched) < 0)
        return -1;
    if (add_int_attr(sim, s_rows_recycled, recycled) < 0)
        return -1;
    return 0;
}

/* -- native flat-op execution -------------------------------------------- */
/*
 * C twins of SoaSimulator._flat_step / _flat_wake and their helpers,
 * operating on the shared Python op table (op is a plain list; see the
 * slot layout comment in soa.py).  Python is entered for the model
 * callouts -- the directory plans, `post_fast` and `_post_writeback`
 * -- and for the rare paths the file comment lists.  Transaction
 * completion does not call `_advance`: it hands (caller, result) back
 * to the run loop, which falls into its native drive section -- the
 * resume runs inside the final wake event at the exact position the
 * Python kernels give it.
 */

typedef struct {
    PyObject *sim;
    PyObject *heap;       /* borrowed from the run loop's caches */
    PyObject *c_meta;
    PyObject *payload;    /* self._payload (list) */
    PyObject *freelist;   /* self._free (list) */
    PyObject *flat_ops;   /* self._flat_ops (list) */
    PyObject *flat_free;  /* self._flat_free (list) */
    PyObject *ring_append;
    PyObject *compact_m;
    PyObject *flat_wake_py;     /* bound _flat_wake (odd tags) */
    int64_t *ring_scheduled;
    int64_t *recycled;
    /* Fabric-counter write-behind: settle totals for the (single)
     * plain fabric accumulate in these locals and flush on every loop
     * exit, saving four attribute round-trips per message.  A second
     * fabric (not seen in practice) falls back to write-through. */
    PyObject *fabric;     /* owned once set */
    int64_t fb_messages, fb_bytes, fb_latency, fb_contention;
    /* Simulator-counter write-behind for natively built/finished flat
     * ops (`_flat_posts`, `flat_tx`, `_blocked` deltas). */
    int64_t fb_flat_posts, fb_flat_tx, fb_blocked;
} FlatCtx;

/* Flush the batched fabric and simulator counters (no-ops when
 * nothing accumulated). */
static int
flat_flush_counters(FlatCtx *fc)
{
    if (fc->fabric != NULL) {
        if (add_int_attr(fc->fabric, s_messages, fc->fb_messages) < 0
                || add_int_attr(fc->fabric, s_bytes_transported,
                                fc->fb_bytes) < 0
                || add_int_attr(fc->fabric, s_total_latency_ns,
                                fc->fb_latency) < 0
                || add_int_attr(fc->fabric, s_total_contention_ns,
                                fc->fb_contention) < 0)
            return -1;
        fc->fb_messages = fc->fb_bytes = 0;
        fc->fb_latency = fc->fb_contention = 0;
    }
    if (fc->fb_flat_posts) {
        if (add_int_attr(fc->sim, s_flat_posts, fc->fb_flat_posts) < 0)
            return -1;
        fc->fb_flat_posts = 0;
    }
    if (fc->fb_flat_tx) {
        if (add_int_attr(fc->sim, s_flat_tx, fc->fb_flat_tx) < 0)
            return -1;
        fc->fb_flat_tx = 0;
    }
    if (fc->fb_blocked) {
        if (add_int_attr(fc->sim, s_blocked, fc->fb_blocked) < 0)
            return -1;
        fc->fb_blocked = 0;
    }
    return 0;
}

/* Op slot accessors.  Slots are machine ints by construction; a
 * non-int raises and propagates. */
static int
op_get_int(PyObject *op, int idx, int64_t *out)
{
    long long x = PyLong_AsLongLong(PyList_GET_ITEM(op, idx));
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return 0;
}

static int
op_set_int(PyObject *op, int idx, int64_t v)
{
    PyObject *num = PyLong_FromLongLong((long long)v);
    if (num == NULL)
        return -1;
    return PyList_SetItem(op, idx, num);  /* steals */
}

static int
op_set_obj(PyObject *op, int idx, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(op, idx, v);  /* steals our new ref */
}

/* Inlined try_acquire on the Acquirable attribute contract (links and
 * home locks alike).  Returns 1 granted, 0 parked (the complement-
 * packed `packed` word appended to the waiter deque), -1 error. */
static int
acquire_or_park(PyObject *res, int64_t packed)
{
    int64_t in_use, capacity, grants;
    PyObject *waiters;
    Py_ssize_t wn;
    if (get_int_attr(res, s_in_use, &in_use) < 0
            || get_int_attr(res, s_capacity, &capacity) < 0)
        return -1;
    waiters = PyObject_GetAttr(res, s_waiters);
    if (waiters == NULL)
        return -1;
    wn = PyObject_Size(waiters);
    if (wn < 0) {
        Py_DECREF(waiters);
        return -1;
    }
    if (in_use < capacity && wn == 0) {
        Py_DECREF(waiters);
        if (set_int_attr(res, s_in_use, in_use + 1) < 0
                || get_int_attr(res, s_grants, &grants) < 0
                || set_int_attr(res, s_grants, grants + 1) < 0)
            return -1;
        return 1;
    }
    {
        PyObject *packed_o = PyLong_FromLongLong((long long)packed);
        PyObject *r = NULL;
        if (packed_o != NULL) {
            r = PyObject_CallMethodOneArg(waiters, s_append, packed_o);
            Py_DECREF(packed_o);
        }
        Py_DECREF(waiters);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

/* A parked flat op was granted the resource it waited on (the
 * `_flat_grant` twin): the unit transferred, so a leg op now holds its
 * next link, and the step word lands at the exact ring position the
 * generator's `_R_VAL` resume word would have taken. */
static int
flat_grant_c(FlatCtx *fc, int64_t opidx, PyObject *op)
{
    int64_t tag, i;
    if (op_get_int(op, 11, &tag) < 0)
        return -1;
    if (tag != F_RD_LOCK && tag != F_WR_LOCK
            && (op_get_int(op, 6, &i) < 0 || op_set_int(op, 6, i + 1) < 0))
        return -1;
    if (ring_append_word(fc->ring_append, (opidx << 3) | R_FLAT) < 0)
        return -1;
    (*fc->ring_scheduled)++;
    return 0;
}

/* Release an Acquirable this op holds (the `Resource.release` twin).
 * Uncontended releases decrement in_use inline, as the Python twins
 * do.  A contended release whose queue head is a complement-packed
 * flat waiter ~((wait_start << PROC_BITS) | opidx) hands the unit over
 * here -- idle check, pop, bank the wait and the grant, `_flat_grant`
 * -- in the order `release()` does; process and Event waiters go
 * through the Python `release()`. */
static int
release_held(FlatCtx *fc, PyObject *res, int64_t now)
{
    PyObject *waiters = PyObject_GetAttr(res, s_waiters);
    PyObject *head, *op = NULL;
    Py_ssize_t wn;
    int64_t in_use, packed = 0, opidx = -1;
    if (waiters == NULL)
        return -1;
    wn = PyObject_Size(waiters);
    if (wn <= 0) {
        Py_DECREF(waiters);
        if (wn < 0 || get_int_attr(res, s_in_use, &in_use) < 0)
            return -1;
        return set_int_attr(res, s_in_use, in_use - 1);
    }
    head = PySequence_GetItem(waiters, 0);
    if (head == NULL) {
        Py_DECREF(waiters);
        return -1;
    }
    if (PyLong_CheckExact(head)) {
        int overflow = 0;
        long long v = PyLong_AsLongLongAndOverflow(head, &overflow);
        if (v < 0 && !overflow) {
            packed = ~(int64_t)v;
            opidx = packed & PROC_MASK;
            if (opidx < (int64_t)PyList_GET_SIZE(fc->flat_ops)) {
                op = PyList_GET_ITEM(fc->flat_ops, (Py_ssize_t)opidx);
                if (!PyList_CheckExact(op) || PyList_GET_SIZE(op) < 12)
                    op = NULL;
            }
        }
        else if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(head);
            Py_DECREF(waiters);
            return -1;
        }
    }
    Py_DECREF(head);
    if (op == NULL) {
        /* Process or Event waiter (or a malformed word, which the
         * Python twin reports). */
        PyObject *r;
        Py_DECREF(waiters);
        r = PyObject_CallMethodNoArgs(res, s_release);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    if (get_int_attr(res, s_in_use, &in_use) < 0) {
        Py_DECREF(waiters);
        return -1;
    }
    if (in_use <= 0) {
        PyObject *name = PyObject_GetAttr(res, s_name);
        Py_DECREF(waiters);
        if (name != NULL) {
            PyErr_Format(g_simerror, "release of idle resource %R", name);
            Py_DECREF(name);
        }
        return -1;
    }
    {
        PyObject *r = PyObject_CallMethodNoArgs(waiters, s_popleft);
        Py_DECREF(waiters);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    Py_INCREF(op);
    if (add_int_attr(res, s_total_wait_ns, now - (packed >> PROC_BITS)) < 0
            || add_int_attr(res, s_grants, 1) < 0
            || flat_grant_c(fc, opidx, op) < 0) {
        Py_DECREF(op);
        return -1;
    }
    Py_DECREF(op);
    return 0;
}

/* Schedule a K_FLAT wake at `at` on a fresh monotone row (the C twin
 * of `_heap_row(at, K_FLAT, opidx)`). */
static int
flat_heap_row(FlatCtx *fc, int64_t at, int64_t opidx)
{
    int64_t row;
    PyObject *keyo;
    int prc;
    if (at > MAX_AT) {
        /* Key past the packed-int64 budget: the Python allocator
         * computes with arbitrary-precision ints. */
        PyObject *r = PyObject_CallMethod(
            fc->sim, "_heap_row", "LiL", (long long)at, K_FLAT,
            (long long)opidx);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    row = alloc_top_row(fc->sim, fc->compact_m);
    if (row < 0)
        return -1;
    if (seq_set_int(fc->c_meta, row, (opidx << 3) | K_FLAT) < 0)
        return -1;
    keyo = PyLong_FromLongLong((long long)((at << ROW_BITS) | row));
    if (keyo == NULL)
        return -1;
    prc = heap_push_native(fc->heap, keyo);
    Py_DECREF(keyo);
    return prc;
}

static int attr_true(PyObject *o, PyObject *name);

/* Event.succeed(value) inlined for a flat transmit's shell: mark it
 * triggered, store the value, and land the dispatch on the ring (the
 * `_schedule_event_row` twin, recycled rows and all).  Falls back to
 * the Python succeed for the already-triggered error path. */
static int
event_succeed_c(FlatCtx *fc, PyObject *shell, PyObject *value)
{
    int64_t row;
    int t = attr_true(shell, s_triggered);
    if (t < 0)
        return -1;
    if (t) {
        PyObject *r = PyObject_CallMethodOneArg(shell, s_succeed, value);
        if (r == NULL)
            return -1;  /* raises "already been triggered" */
        Py_DECREF(r);
        return 0;
    }
    if (PyObject_SetAttr(shell, s_triggered, Py_True) < 0
            || PyObject_SetAttr(shell, s_value, value) < 0)
        return -1;
    {
        Py_ssize_t nfree = PyList_GET_SIZE(fc->freelist);
        if (nfree > 0) {
            long long v = PyLong_AsLongLong(
                PyList_GET_ITEM(fc->freelist, nfree - 1));
            if (v == -1 && PyErr_Occurred())
                return -1;
            if (PyList_SetSlice(fc->freelist, nfree - 1, nfree,
                                NULL) < 0)
                return -1;
            (*fc->recycled)++;
            row = (int64_t)v;
        }
        else {
            row = alloc_top_row(fc->sim, fc->compact_m);
            if (row < 0)
                return -1;
        }
    }
    if (seq_set_int(fc->c_meta, row, K_EVENT) < 0)
        return -1;
    Py_INCREF(shell);
    if (PyList_SetItem(fc->payload, (Py_ssize_t)row, shell) < 0)
        return -1;
    if (ring_append_word(fc->ring_append, row << 1) < 0)
        return -1;
    (*fc->ring_scheduled)++;
    return 0;
}

/* Book one completed leg: per-link counters and releases plus the
 * fabric totals (Fabric.settle_fast twin).  Transaction legs also
 * bank the transmission time into op[19] (add_latency). */
static int
flat_settle_c(FlatCtx *fc, PyObject *op, int64_t now, int add_latency)
{
    PyObject *fabric = PyList_GET_ITEM(op, 1);
    PyObject *path = PyList_GET_ITEM(op, 3);
    int64_t nbytes, tx, start, circuit, held;
    Py_ssize_t i, n;
    if (!PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError,
                        "_csoa: flat-op path is not a tuple");
        return -1;
    }
    if (op_get_int(op, 4, &nbytes) < 0 || op_get_int(op, 5, &tx) < 0
            || op_get_int(op, 7, &start) < 0
            || op_get_int(op, 8, &circuit) < 0)
        return -1;
    held = now - circuit;
    n = PyTuple_GET_SIZE(path);
    for (i = 0; i < n; i++) {
        PyObject *link = PyTuple_GET_ITEM(path, i);
        if (add_int_attr(link, s_messages, 1) < 0
                || add_int_attr(link, s_bytes_carried, nbytes) < 0
                || add_int_attr(link, s_busy_ns, held) < 0)
            return -1;
        if (release_held(fc, link, now) < 0)
            return -1;
    }
    if (fc->fabric == NULL) {
        Py_INCREF(fabric);
        fc->fabric = fabric;
    }
    if (fabric == fc->fabric) {
        fc->fb_messages += 1;
        fc->fb_bytes += nbytes;
        fc->fb_latency += tx;
        fc->fb_contention += circuit - start;
    }
    else if (add_int_attr(fabric, s_messages, 1) < 0
            || add_int_attr(fabric, s_bytes_transported, nbytes) < 0
            || add_int_attr(fabric, s_total_latency_ns, tx) < 0
            || add_int_attr(fabric, s_total_contention_ns,
                            circuit - start) < 0)
        return -1;
    if (add_latency) {
        int64_t lat;
        if (op_get_int(op, 19, &lat) < 0
                || op_set_int(op, 19, lat + tx) < 0)
            return -1;
    }
    return 0;
}

static int flat_step_c(FlatCtx *fc, int64_t opidx, int64_t now,
                       int64_t *resume_p, PyObject **resume_value);
static int flat_done_c(FlatCtx *fc, int64_t opidx, PyObject *op,
                       int64_t *resume_p, PyObject **resume_value);
static int flat_wr_unlock_c(FlatCtx *fc, int64_t opidx, PyObject *op,
                            int64_t now, int64_t *resume_p,
                            PyObject **resume_value);
static int flat_wr_join_c(FlatCtx *fc, int64_t opidx, PyObject *op,
                          int64_t now, int64_t *resume_p,
                          PyObject **resume_value);
static int flat_wr_joined_c(FlatCtx *fc, int64_t opidx, PyObject *op,
                            int64_t now, int64_t *resume_p,
                            PyObject **resume_value);

/* Truthiness of an attribute (plan flags): 1/0, -1 on error. */
static int
attr_true(PyObject *o, PyObject *name)
{
    PyObject *a = PyObject_GetAttr(o, name);
    int truth;
    if (a == NULL)
        return -1;
    truth = PyObject_IsTrue(a);
    Py_DECREF(a);
    return truth;
}

/* Start a message leg from ctx-resolved route/size/time and attempt
 * its first link inline (the `_flat_leg` twin). */
static int
flat_leg_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t src,
           int64_t dst, int data, int64_t tag, int64_t now,
           int64_t *resume_p, PyObject **resume_value)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *routes = PyTuple_GET_ITEM(ctx, 1);
    int64_t nprocs;
    long long v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 2));
    if (v == -1 && PyErr_Occurred())
        return -1;
    nprocs = (int64_t)v;
    if (op_set_obj(op, 3, PyList_GET_ITEM(
            routes, (Py_ssize_t)(src * nprocs + dst))) < 0)
        return -1;
    if (op_set_obj(op, 4, PyTuple_GET_ITEM(ctx, data ? 4 : 3)) < 0
            || op_set_obj(op, 5, PyTuple_GET_ITEM(ctx, data ? 6 : 5)) < 0)
        return -1;
    if (op_set_int(op, 6, 0) < 0 || op_set_int(op, 7, now) < 0
            || op_set_int(op, 11, tag) < 0)
        return -1;
    return flat_step_c(fc, opidx, now, resume_p, resume_value);
}

/* A plan callout raised: route the live exception into the parked
 * caller via the Python `_flat_fail` twin (rare path). */
static int
flat_fail_c(FlatCtx *fc, int64_t opidx, PyObject *op)
{
    PyObject *etype, *evalue, *etb, *num, *r;
    PyErr_Fetch(&etype, &evalue, &etb);
    PyErr_NormalizeException(&etype, &evalue, &etb);
    if (evalue == NULL) {
        PyErr_Restore(etype, evalue, etb);
        return -1;
    }
    if (etb != NULL)
        PyException_SetTraceback(evalue, etb);
    num = PyLong_FromLongLong((long long)opidx);
    if (num == NULL) {
        Py_XDECREF(etype);
        Py_DECREF(evalue);
        Py_XDECREF(etb);
        return -1;
    }
    r = PyObject_CallMethodObjArgs(fc->sim, s_flat_fail, num, op,
                                   evalue, NULL);
    Py_DECREF(num);
    Py_XDECREF(etype);
    Py_DECREF(evalue);
    Py_XDECREF(etb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Raced-with-ourselves exit (`_flat_done_early` twin): unlock,
 * resume the caller with (0, hit_ns). */
static int
flat_done_early_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
                  int64_t *resume_p, PyObject **resume_value)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *tup, *zero;
    int64_t p;
    if (release_held(fc, PyList_GET_ITEM(op, 17), now) < 0)
        return -1;
    if (op_get_int(op, 12, &p) < 0)
        return -1;
    zero = PyLong_FromLong(0);
    if (zero == NULL)
        return -1;
    tup = PyTuple_Pack(2, zero, PyTuple_GET_ITEM(ctx, 8));
    Py_DECREF(zero);
    if (tup == NULL)
        return -1;
    Py_INCREF(Py_None);
    if (PyList_SetItem(fc->flat_ops, (Py_ssize_t)opidx, Py_None) < 0
            || list_append_int(fc->flat_free, opidx) < 0) {
        Py_DECREF(tup);
        return -1;
    }
    *resume_p = p;
    *resume_value = tup;
    return 0;
}

/* Home-lock granted on a read: run the directory plan (the
 * `_flat_rd_plan` twin; the plan callout itself is the model). */
static int
flat_rd_plan_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
               int64_t *resume_p, PyObject **resume_value)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *plan;
    int truth;
    int64_t source, home, svc, dur;
    long long v;
    plan = PyObject_CallFunctionObjArgs(PyTuple_GET_ITEM(ctx, 10),
                                        PyList_GET_ITEM(op, 14),
                                        PyList_GET_ITEM(op, 15), NULL);
    if (plan == NULL)
        return flat_fail_c(fc, opidx, op);
    if (PyList_SetItem(op, 18, plan) < 0)  /* steals */
        return -1;
    truth = attr_true(plan, s_hit);
    if (truth < 0)
        return -1;
    if (truth)  /* raced with ourselves; cannot normally happen */
        return flat_done_early_c(fc, opidx, op, now, resume_p,
                                 resume_value);
    truth = attr_true(plan, s_from_memory);
    if (truth < 0)
        return -1;
    if (truth) {
        v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 7));
        if (v == -1 && PyErr_Occurred())
            return -1;
        dur = (int64_t)v;
        if (op_get_int(op, 20, &svc) < 0
                || op_set_int(op, 20, svc + dur) < 0
                || op_set_int(op, 11, F_RD_MEM) < 0)
            return -1;
        return flat_heap_row(fc, now + dur, opidx);
    }
    /* Owned by a remote cache: home forwards, owner supplies. */
    if (get_int_attr(plan, s_source, &source) < 0
            || op_get_int(op, 16, &home) < 0)
        return -1;
    if (home != source)
        return flat_leg_c(fc, opidx, op, home, source, 0, F_RD_FWD, now,
                          resume_p, resume_value);
    if (release_held(fc, PyList_GET_ITEM(op, 17), now) < 0)
        return -1;
    v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 8));
    if (v == -1 && PyErr_Occurred())
        return -1;
    dur = (int64_t)v;
    if (op_get_int(op, 20, &svc) < 0
            || op_set_int(op, 20, svc + dur) < 0
            || op_set_int(op, 11, F_RD_HIT) < 0)
        return -1;
    return flat_heap_row(fc, now + dur, opidx);
}

/* Launch a write's invalidation rounds (the `_flat_wr_invs` twin).
 * The common remote round -- two control legs, inv out and ack back
 * -- is a flat transmit built natively (the `flat_transmit` twin,
 * including its Event shell); only the degenerate home==node round
 * falls back to the machine's `_spawn_inv` so its generator-form
 * event sequence is preserved exactly. */
static int
flat_wr_invs_c(FlatCtx *fc, PyObject *op, PyObject *plan, int64_t now)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *routes = PyTuple_GET_ITEM(ctx, 1);
    PyObject *fabric = PyTuple_GET_ITEM(ctx, 0);
    PyObject *ctrl = PyTuple_GET_ITEM(ctx, 3);
    PyObject *tx = PyTuple_GET_ITEM(ctx, 5);
    PyObject *machine = PyTuple_GET_ITEM(ctx, 12);
    PyObject *seq = NULL, *invs = NULL, *shell = NULL, *xop = NULL;
    Py_ssize_t n, k;
    int64_t source = -1, home, nprocs;
    long long v;
    int have_source = 0, any_remote = 0, rc = -1;

    {
        /* plan.source is None when memory supplies the data; the
         * twin's `s != source` then filters nothing. */
        PyObject *src_o = PyObject_GetAttr(plan, s_source);
        if (src_o == NULL)
            return -1;
        if (src_o != Py_None) {
            v = PyLong_AsLongLong(src_o);
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(src_o);
                return -1;
            }
            source = (int64_t)v;
            have_source = 1;
        }
        Py_DECREF(src_o);
    }
    if (op_get_int(op, 16, &home) < 0)
        return -1;
    v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 2));
    if (v == -1 && PyErr_Occurred())
        return -1;
    nprocs = (int64_t)v;
    {
        PyObject *inv_attr = PyObject_GetAttr(plan, s_invalidated);
        if (inv_attr == NULL)
            return -1;
        seq = PySequence_Fast(inv_attr,
                              "_csoa: plan.invalidated is not a sequence");
        Py_DECREF(inv_attr);
        if (seq == NULL)
            return -1;
    }
    invs = PyList_New(0);
    if (invs == NULL)
        goto out;
    n = PySequence_Fast_GET_SIZE(seq);
    for (k = 0; k < n; k++) {
        PyObject *node_o = PySequence_Fast_GET_ITEM(seq, k);
        int64_t node;
        v = PyLong_AsLongLong(node_o);
        if (v == -1 && PyErr_Occurred())
            goto out;
        node = (int64_t)v;
        if (have_source && node == source)
            continue;
        if (node != home)
            any_remote = 1;
        if (node == home) {
            shell = PyObject_CallMethodObjArgs(machine, s_spawn_inv,
                                               PyList_GET_ITEM(op, 14),
                                               PyList_GET_ITEM(op, 16),
                                               node_o, NULL);
            if (shell == NULL)
                goto out;
        }
        else {
            PyObject *out_path = PyList_GET_ITEM(
                routes, (Py_ssize_t)(home * nprocs + node));
            PyObject *back_path = PyList_GET_ITEM(
                routes, (Py_ssize_t)(node * nprocs + home));
            PyObject *legs;
            int64_t xidx;
            shell = PyObject_CallOneArg(g_event, fc->sim);
            if (shell == NULL)
                goto out;
            {
                PyObject *leg0 = PyTuple_Pack(3, out_path, ctrl, tx);
                PyObject *leg1;
                if (leg0 == NULL)
                    goto out;
                leg1 = PyTuple_Pack(3, back_path, ctrl, tx);
                if (leg1 == NULL) {
                    Py_DECREF(leg0);
                    goto out;
                }
                legs = PyTuple_Pack(2, leg0, leg1);
                Py_DECREF(leg0);
                Py_DECREF(leg1);
                if (legs == NULL)
                    goto out;
            }
            xop = PyList_New(12);
            if (xop == NULL) {
                Py_DECREF(legs);
                goto out;
            }
#define XSETI(idx, val)                                                 \
    do {                                                                \
        PyObject *_n = PyLong_FromLongLong((long long)(val));           \
        if (_n == NULL)                                                 \
            goto out;                                                   \
        PyList_SET_ITEM(xop, (idx), _n);                                \
    } while (0)
#define XSETO(idx, obj)                                                 \
    do {                                                                \
        PyObject *_o = (obj);                                           \
        Py_INCREF(_o);                                                  \
        PyList_SET_ITEM(xop, (idx), _o);                                \
    } while (0)
            XSETO(0, shell);
            XSETO(1, fabric);
            PyList_SET_ITEM(xop, 2, legs);  /* steals */
            XSETO(3, out_path);
            XSETO(4, ctrl);
            XSETO(5, tx);
            XSETI(6, 0);
            XSETI(7, now);
            XSETI(8, 0);
            XSETO(9, Py_None);
            XSETI(10, 0);
            XSETI(11, F_XMIT);
#undef XSETI
#undef XSETO
            {
                Py_ssize_t nfree = PyList_GET_SIZE(fc->flat_free);
                if (nfree > 0) {
                    v = PyLong_AsLongLong(
                        PyList_GET_ITEM(fc->flat_free, nfree - 1));
                    if (v == -1 && PyErr_Occurred())
                        goto out;
                    xidx = (int64_t)v;
                    if (PyList_SetSlice(fc->flat_free, nfree - 1, nfree,
                                        NULL) < 0)
                        goto out;
                    {
                        int src = PyList_SetItem(fc->flat_ops,
                                                 (Py_ssize_t)xidx,
                                                 xop);  /* steals */
                        xop = NULL;
                        if (src < 0)
                            goto out;
                    }
                }
                else {
                    xidx = (int64_t)PyList_GET_SIZE(fc->flat_ops);
                    if (xidx >= ((int64_t)1 << PROC_BITS)) {
                        PyErr_Format(g_simerror,
                                     "too many live flat ops (%lld); "
                                     "see PROC_BITS in "
                                     "repro.engine.core",
                                     (long long)xidx);
                        goto out;
                    }
                    if (PyList_Append(fc->flat_ops, xop) < 0)
                        goto out;
                    Py_CLEAR(xop);
                }
            }
            fc->fb_flat_posts += 1;
            fc->fb_blocked += 1;
            /* The start word doubles as the first acquire attempt,
             * exactly where the generator's start-up resumption
             * would have run. */
            (*fc->ring_scheduled)++;
            if (ring_append_word(fc->ring_append,
                                 (xidx << 3) | R_FLAT) < 0)
                goto out;
        }
        if (PyList_Append(invs, shell) < 0)
            goto out;
        Py_CLEAR(shell);
    }
    if (PyList_GET_SIZE(invs) > 0) {
        if (PyList_SetItem(op, 21, invs) < 0) {  /* steals */
            invs = NULL;
            goto out;
        }
        invs = NULL;
        if (any_remote && op_set_int(op, 22, 1) < 0)
            goto out;
    }
    rc = 0;
out:
    Py_XDECREF(seq);
    Py_XDECREF(invs);
    Py_XDECREF(shell);
    Py_XDECREF(xop);
    return rc;
}

/* Home-lock granted on a write: plan, launch invalidations (the
 * `_flat_wr_plan` twin). */
static int
flat_wr_plan_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
               int64_t *resume_p, PyObject **resume_value)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *plan;
    int truth;
    int64_t source, home, svc, dur;
    long long v;
    plan = PyObject_CallFunctionObjArgs(PyTuple_GET_ITEM(ctx, 11),
                                        PyList_GET_ITEM(op, 14),
                                        PyList_GET_ITEM(op, 15), NULL);
    if (plan == NULL)
        return flat_fail_c(fc, opidx, op);
    if (PyList_SetItem(op, 18, plan) < 0)  /* steals */
        return -1;
    truth = attr_true(plan, s_fast);
    if (truth < 0)
        return -1;
    if (truth)  /* raced with ourselves; cannot normally happen */
        return flat_done_early_c(fc, opidx, op, now, resume_p,
                                 resume_value);
    truth = attr_true(plan, s_invalidated);
    if (truth < 0)
        return -1;
    if (truth && flat_wr_invs_c(fc, op, plan, now) < 0)
        return -1;
    truth = attr_true(plan, s_had_data);
    if (truth < 0)
        return -1;
    if (!truth) {
        truth = attr_true(plan, s_from_memory);
        if (truth < 0)
            return -1;
        if (truth) {
            v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 7));
            if (v == -1 && PyErr_Occurred())
                return -1;
            dur = (int64_t)v;
            if (op_get_int(op, 20, &svc) < 0
                    || op_set_int(op, 20, svc + dur) < 0
                    || op_set_int(op, 11, F_WR_MEM) < 0)
                return -1;
            return flat_heap_row(fc, now + dur, opidx);
        }
        if (get_int_attr(plan, s_source, &source) < 0
                || op_get_int(op, 16, &home) < 0)
            return -1;
        if (home != source)
            return flat_leg_c(fc, opidx, op, home, source, 0, F_WR_FWD,
                              now, resume_p, resume_value);
    }
    return flat_wr_join_c(fc, opidx, op, now, resume_p, resume_value);
}

/* One acquire-or-transmit step (the `_flat_step` twin).  The lock
 * tags run the directory plan. */
static int
flat_step_c(FlatCtx *fc, int64_t opidx, int64_t now,
            int64_t *resume_p, PyObject **resume_value)
{
    PyObject *op = PyList_GET_ITEM(fc->flat_ops, (Py_ssize_t)opidx);
    PyObject *path;
    int64_t tag, i, tx;
    Py_ssize_t n;
    int rc = -1;
    Py_INCREF(op);
    if (op_get_int(op, 11, &tag) < 0)
        goto out;
    if (tag == F_RD_LOCK) {
        rc = flat_rd_plan_c(fc, opidx, op, now, resume_p, resume_value);
        goto out;
    }
    if (tag == F_WR_LOCK) {
        rc = flat_wr_plan_c(fc, opidx, op, now, resume_p, resume_value);
        goto out;
    }
    if (tag == F_WR_WAIT) {
        rc = flat_wr_joined_c(fc, opidx, op, now, resume_p, resume_value);
        goto out;
    }
    path = PyList_GET_ITEM(op, 3);
    if (!PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError,
                        "_csoa: flat-op path is not a tuple");
        goto out;
    }
    if (op_get_int(op, 6, &i) < 0)
        goto out;
    n = PyTuple_GET_SIZE(path);
    if (i < (int64_t)n) {
        int arc = acquire_or_park(PyTuple_GET_ITEM(path, (Py_ssize_t)i),
                                  ~((now << PROC_BITS) | opidx));
        if (arc < 0)
            goto out;
        if (arc) {
            if (op_set_int(op, 6, i + 1) < 0)
                goto out;
            if (ring_append_word(fc->ring_append,
                                 (opidx << 3) | R_FLAT) < 0)
                goto out;
            (*fc->ring_scheduled)++;
        }
        rc = 0;
        goto out;
    }
    /* Circuit complete: the transmission sleep. */
    if (op_set_int(op, 8, now) < 0)
        goto out;
    if (op_get_int(op, 5, &tx) < 0)
        goto out;
    rc = flat_heap_row(fc, now + tx, opidx);
out:
    Py_DECREF(op);
    return rc;
}

/* Transaction complete (the `_flat_done` twin): writeback callout,
 * recycle, then hand (caller, (latency, service)) to the run loop. */
static int
flat_done_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t *resume_p,
            PyObject **resume_value)
{
    PyObject *ctx = PyList_GET_ITEM(op, 13);
    PyObject *plan = PyList_GET_ITEM(op, 18);
    PyObject *writeback = PyObject_GetAttr(plan, s_writeback);
    int64_t p, lat, svc;
    PyObject *tup;
    if (writeback == NULL)
        return -1;
    if (writeback != Py_None) {
        PyObject *machine = PyTuple_GET_ITEM(ctx, 12);
        PyObject *r = PyObject_CallMethodObjArgs(
            machine, s_post_writeback, PyList_GET_ITEM(op, 14),
            writeback, NULL);
        Py_DECREF(writeback);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    else
        Py_DECREF(writeback);
    if (op_get_int(op, 12, &p) < 0 || op_get_int(op, 19, &lat) < 0
            || op_get_int(op, 20, &svc) < 0)
        return -1;
    tup = Py_BuildValue("(LL)", (long long)lat, (long long)svc);
    if (tup == NULL)
        return -1;
    Py_INCREF(Py_None);
    if (PyList_SetItem(fc->flat_ops, (Py_ssize_t)opidx, Py_None) < 0
            || list_append_int(fc->flat_free, opidx) < 0) {
        Py_DECREF(tup);
        return -1;
    }
    *resume_p = p;
    *resume_value = tup;
    return 0;
}

/* Home-side work of a write done: wait for its invalidation rounds
 * (the `_flat_wr_join` twin).  The counting join parks ~opidx in every
 * pending round's callbacks, books a late-joiner event through the
 * Python `_flat_join_late` for a round that already dispatched, and
 * counts the rounds still out in op[23]. */
static int
flat_wr_join_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
               int64_t *resume_p, PyObject **resume_value)
{
    PyObject *invs = PyList_GET_ITEM(op, 21);
    PyObject *waiter;
    Py_ssize_t n, k;
    int rc = -1;
    if (invs == Py_None)
        return flat_wr_unlock_c(fc, opidx, op, now, resume_p, resume_value);
    if (!PyList_CheckExact(invs)) {
        PyErr_SetString(PyExc_TypeError,
                        "_csoa: flat-op invalidation rounds are not a list");
        return -1;
    }
    n = PyList_GET_SIZE(invs);
    if (n == 0)
        return flat_wr_unlock_c(fc, opidx, op, now, resume_p, resume_value);
    if (op_set_int(op, 11, F_WR_WAIT) < 0 || op_set_int(op, 23, n) < 0)
        return -1;
    waiter = PyLong_FromLongLong((long long)~opidx);
    if (waiter == NULL)
        return -1;
    Py_INCREF(invs);
    for (k = 0; k < n; k++) {
        PyObject *shell = PyList_GET_ITEM(invs, k);
        PyObject *callbacks = PyObject_GetAttr(shell, s_callbacks);
        int arc;
        if (callbacks == NULL)
            goto out;
        if (callbacks == Py_None) {
            PyObject *num = PyLong_FromLongLong((long long)opidx);
            PyObject *r = NULL;
            if (num != NULL) {
                r = PyObject_CallMethodObjArgs(fc->sim, s_flat_join_late,
                                               num, shell, NULL);
                Py_DECREF(num);
            }
            arc = (r == NULL) ? -1 : 0;
            Py_XDECREF(r);
        }
        else  /* raises SystemError unless callbacks is a list */
            arc = PyList_Append(callbacks, waiter);
        Py_DECREF(callbacks);
        if (arc < 0)
            goto out;
    }
    rc = 0;
out:
    Py_DECREF(invs);
    Py_DECREF(waiter);
    return rc;
}

/* One invalidation round of a waiting write finished without an
 * exception (the `_flat_join_round` twin on its success path, run
 * inside the round shell's dispatch).  The last round queues the op's
 * continuation word where `all_of`'s composite dispatch would sit.
 * Returns 1 counted, 0 when `op` is not a waiting transaction op (the
 * caller lets the Python dispatch decide), -1 on error. */
static int
flat_join_round_c(FlatCtx *fc, int64_t opidx)
{
    PyObject *op;
    int64_t left;
    if (opidx >= (int64_t)PyList_GET_SIZE(fc->flat_ops))
        return 0;
    op = PyList_GET_ITEM(fc->flat_ops, (Py_ssize_t)opidx);
    if (!PyList_CheckExact(op) || PyList_GET_SIZE(op) < 24)
        return 0;
    if (op_get_int(op, 23, &left) < 0)
        return -1;
    if (left <= 0)
        return 1;  /* the join already failed; later rounds are moot */
    if (op_set_int(op, 23, left - 1) < 0)
        return -1;
    if (left > 1)
        return 1;
    Py_INCREF(Py_None);
    if (PyList_SetItem(op, 21, Py_None) < 0)
        return -1;
    if (ring_append_word(fc->ring_append, (opidx << 3) | R_FLAT) < 0)
        return -1;
    (*fc->ring_scheduled)++;
    return 1;
}

/* Every invalidation round finished: resume the write program (the
 * `_flat_wr_joined` twin).  A failed join hands its exception to the
 * Python `_flat_fail`. */
static int
flat_wr_joined_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
                 int64_t *resume_p, PyObject **resume_value)
{
    int64_t hri, lat, round_ns;
    if (PyList_GET_ITEM(op, 21) != Py_None) {
        PyObject *num = PyLong_FromLongLong((long long)opidx);
        PyObject *r;
        if (num == NULL)
            return -1;
        r = PyObject_CallMethodObjArgs(fc->sim, s_flat_fail, num, op,
                                       PyList_GET_ITEM(op, 21), NULL);
        Py_DECREF(num);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    if (op_get_int(op, 22, &hri) < 0)
        return -1;
    if (hri) {
        /* Contention-free the rounds overlap: one round's worth of
         * transmission time is genuine latency. */
        long long v = PyLong_AsLongLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(op, 13), 9));
        if (v == -1 && PyErr_Occurred())
            return -1;
        round_ns = (int64_t)v;
        if (op_get_int(op, 19, &lat) < 0
                || op_set_int(op, 19, lat + round_ns) < 0)
            return -1;
    }
    return flat_wr_unlock_c(fc, opidx, op, now, resume_p, resume_value);
}

/* Release the directory and launch a write's final leg (the
 * `_flat_wr_unlock` twin). */
static int
flat_wr_unlock_c(FlatCtx *fc, int64_t opidx, PyObject *op, int64_t now,
                 int64_t *resume_p, PyObject **resume_value)
{
    PyObject *plan = PyList_GET_ITEM(op, 18);
    int64_t pid, home;
    int truth;
    if (release_held(fc, PyList_GET_ITEM(op, 17), now) < 0)
        return -1;
    if (op_get_int(op, 14, &pid) < 0 || op_get_int(op, 16, &home) < 0)
        return -1;
    truth = attr_true(plan, s_had_data);
    if (truth < 0)
        return -1;
    if (truth) {
        /* Ownership upgrade: permission only, granted by the home. */
        if (pid != home)
            return flat_leg_c(fc, opidx, op, home, pid, 0, F_WR_GRANT,
                              now, resume_p, resume_value);
        return flat_done_c(fc, opidx, op, resume_p, resume_value);
    }
    truth = attr_true(plan, s_from_memory);
    if (truth < 0)
        return -1;
    if (truth) {
        if (home != pid)
            return flat_leg_c(fc, opidx, op, home, pid, 1, F_WR_DATA,
                              now, resume_p, resume_value);
        return flat_done_c(fc, opidx, op, resume_p, resume_value);
    }
    {
        PyObject *ctx = PyList_GET_ITEM(op, 13);
        int64_t hit, svc;
        long long h = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 8));
        if (h == -1 && PyErr_Occurred())
            return -1;
        hit = (int64_t)h;
        if (op_get_int(op, 20, &svc) < 0
                || op_set_int(op, 20, svc + hit) < 0)
            return -1;
        if (op_set_int(op, 11, F_WR_HIT) < 0)
            return -1;
        return flat_heap_row(fc, now + hit, opidx);
    }
}

/* Build and start a memory-transaction flat op from a deferred-call
 * request tuple `(transact_flat, pid, addr, is_write)` -- the native
 * twin of Machine._transact_flat + SoaSimulator.flat_transact plus
 * the kernel's first-step dispatch: on the memoized block path an
 * uncontended miss enters the interpreter only for the plan callout.
 * `mctx` is the machine's `_flat_mctx` registration `(transact_flat,
 * block_bytes, home_cache, home_of_block, home_locks, home_lock,
 * flat_ctx)`. */
static int
flat_tx_native(FlatCtx *fc, PyObject *mctx, PyObject *y, int64_t p,
               int64_t now, int64_t *resume_p, PyObject **resume_value)
{
    PyObject *home_cache = PyTuple_GET_ITEM(mctx, 2);
    PyObject *home_locks = PyTuple_GET_ITEM(mctx, 4);
    PyObject *ctx = PyTuple_GET_ITEM(mctx, 6);
    PyObject *routes = PyTuple_GET_ITEM(ctx, 1);
    PyObject *pid_o = PyTuple_GET_ITEM(y, 1);
    PyObject *bkey = NULL, *home_o = NULL, *lock = NULL, *op = NULL;
    int64_t pid, addr, block_bytes, block, home, opidx;
    long long v;
    int is_write;
    int rc = -1;

    v = PyLong_AsLongLong(pid_o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    pid = (int64_t)v;
    v = PyLong_AsLongLong(PyTuple_GET_ITEM(y, 2));
    if (v == -1 && PyErr_Occurred())
        return -1;
    addr = (int64_t)v;
    is_write = PyObject_IsTrue(PyTuple_GET_ITEM(y, 3));
    if (is_write < 0)
        return -1;
    v = PyLong_AsLongLong(PyTuple_GET_ITEM(mctx, 1));
    if (v == -1 && PyErr_Occurred())
        return -1;
    block_bytes = (int64_t)v;
    block = addr / block_bytes;
    bkey = PyLong_FromLongLong((long long)block);
    if (bkey == NULL)
        return -1;
    home_o = PyDict_GetItemWithError(home_cache, bkey);
    if (home_o != NULL)
        Py_INCREF(home_o);
    else {
        if (PyErr_Occurred())
            goto fail;
        /* Cold block: the method computes and memoizes. */
        home_o = PyObject_CallOneArg(PyTuple_GET_ITEM(mctx, 3), bkey);
        if (home_o == NULL)
            goto fail;
    }
    v = PyLong_AsLongLong(home_o);
    if (v == -1 && PyErr_Occurred())
        goto fail;
    home = (int64_t)v;
    lock = PyDict_GetItemWithError(home_locks, bkey);
    if (lock != NULL)
        Py_INCREF(lock);
    else {
        if (PyErr_Occurred())
            goto fail;
        /* Cold block: the method creates and memoizes the Resource. */
        lock = PyObject_CallOneArg(PyTuple_GET_ITEM(mctx, 5), bkey);
        if (lock == NULL)
            goto fail;
    }

    op = PyList_New(24);
    if (op == NULL)
        goto fail;
#define SETI(idx, val)                                                  \
    do {                                                                \
        PyObject *_n = PyLong_FromLongLong((long long)(val));           \
        if (_n == NULL)                                                 \
            goto fail;                                                  \
        PyList_SET_ITEM(op, (idx), _n);                                 \
    } while (0)
#define SETO(idx, obj)                                                  \
    do {                                                                \
        PyObject *_o = (obj);                                           \
        Py_INCREF(_o);                                                  \
        PyList_SET_ITEM(op, (idx), _o);                                 \
    } while (0)
    SETO(0, Py_None);
    SETO(1, PyTuple_GET_ITEM(ctx, 0));
    SETO(2, Py_None);
    if (pid != home) {
        /* Request leg pid -> home (control message). */
        int64_t nprocs;
        v = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 2));
        if (v == -1 && PyErr_Occurred())
            goto fail;
        nprocs = (int64_t)v;
        SETO(3, PyList_GET_ITEM(routes,
                                (Py_ssize_t)(pid * nprocs + home)));
        SETO(4, PyTuple_GET_ITEM(ctx, 3));
        SETO(5, PyTuple_GET_ITEM(ctx, 5));
        SETI(7, now);
        SETI(11, is_write ? F_WR_REQ : F_RD_REQ);
    }
    else {
        SETO(3, Py_None);
        SETI(4, 0);
        SETI(5, 0);
        SETI(7, 0);
        SETI(11, is_write ? F_WR_LOCK : F_RD_LOCK);
    }
    SETI(6, 0);
    SETI(8, 0);
    SETO(9, Py_None);
    SETI(10, 0);
    SETI(12, p);
    SETO(13, ctx);
    SETO(14, pid_o);
    SETO(15, bkey);
    SETO(16, home_o);
    SETO(17, lock);
    SETO(18, Py_None);
    SETI(19, 0);
    SETI(20, 0);
    SETO(21, Py_None);
    SETI(22, 0);
    SETI(23, 0);
#undef SETI
#undef SETO

    {
        Py_ssize_t nfree = PyList_GET_SIZE(fc->flat_free);
        if (nfree > 0) {
            v = PyLong_AsLongLong(
                PyList_GET_ITEM(fc->flat_free, nfree - 1));
            if (v == -1 && PyErr_Occurred())
                goto fail;
            opidx = (int64_t)v;
            if (PyList_SetSlice(fc->flat_free, nfree - 1, nfree,
                                NULL) < 0)
                goto fail;
            {
                int src = PyList_SetItem(fc->flat_ops,
                                         (Py_ssize_t)opidx,
                                         op);  /* steals, even on error */
                op = NULL;
                if (src < 0)
                    goto fail;
            }
        }
        else {
            opidx = (int64_t)PyList_GET_SIZE(fc->flat_ops);
            if (opidx >= ((int64_t)1 << PROC_BITS)) {
                PyErr_Format(g_simerror,
                             "too many live flat ops (%lld); see "
                             "PROC_BITS in repro.engine.core",
                             (long long)opidx);
                goto fail;
            }
            if (PyList_Append(fc->flat_ops, op) < 0)
                goto fail;
            Py_CLEAR(op);
        }
    }
    fc->fb_flat_posts += 1;
    fc->fb_flat_tx += 1;

    /* First step: the request leg's first link acquire, or the
     * home-lock attempt on a home-local miss -- same position as the
     * generator twin's first yield. */
    if (pid == home) {
        int arc = acquire_or_park(lock, ~((now << PROC_BITS) | opidx));
        if (arc < 0)
            goto fail_published;
        if (arc) {
            if (ring_append_word(fc->ring_append,
                                 (opidx << 3) | R_FLAT) < 0)
                goto fail_published;
            (*fc->ring_scheduled)++;
        }
        rc = 0;
    }
    else
        rc = flat_step_c(fc, opidx, now, resume_p, resume_value);
    goto out;

fail_published:
    rc = -1;
    goto out;
fail:
    rc = -1;
out:
    Py_XDECREF(op);
    Py_XDECREF(bkey);
    Py_XDECREF(home_o);
    Py_XDECREF(lock);
    return rc;
}

/* Wake step of a flat op (the `_flat_wake` twin).  On transaction
 * completion, *resume_p / *resume_value carry the caller resume back
 * to the run loop's drive section; otherwise *resume_p stays -1. */
static int
flat_wake_c(FlatCtx *fc, int64_t opidx, int64_t now, int64_t *resume_p,
            PyObject **resume_value)
{
    PyObject *op = PyList_GET_ITEM(fc->flat_ops, (Py_ssize_t)opidx);
    int64_t tag;
    int rc = -1;
    Py_INCREF(op);
    if (op_get_int(op, 11, &tag) < 0)
        goto out;
    switch ((int)tag) {
    case F_XMIT: {
        PyObject *legs, *shell, *value;
        int64_t legidx;
        if (flat_settle_c(fc, op, now, 0) < 0)
            goto out;
        legs = PyList_GET_ITEM(op, 2);
        if (!PyTuple_CheckExact(legs)) {
            PyErr_SetString(PyExc_TypeError,
                            "_csoa: flat-op legs is not a tuple");
            goto out;
        }
        if (op_get_int(op, 10, &legidx) < 0)
            goto out;
        legidx += 1;
        if (legidx < (int64_t)PyTuple_GET_SIZE(legs)) {
            /* Next leg starts inside this settle step. */
            PyObject *leg = PyTuple_GET_ITEM(legs, (Py_ssize_t)legidx);
            if (op_set_obj(op, 3, PyTuple_GET_ITEM(leg, 0)) < 0
                    || op_set_obj(op, 4, PyTuple_GET_ITEM(leg, 1)) < 0
                    || op_set_obj(op, 5, PyTuple_GET_ITEM(leg, 2)) < 0)
                goto out;
            if (op_set_int(op, 6, 0) < 0 || op_set_int(op, 7, now) < 0
                    || op_set_int(op, 10, legidx) < 0)
                goto out;
            rc = flat_step_c(fc, opidx, now, resume_p, resume_value);
            goto out;
        }
        /* Done: mirror `_finish` -- unblock, recycle, succeed the
         * shell (its K_EVENT dispatch is the trailing parity event).
         * The _blocked decrement batches with the other simulator
         * counters (nothing reads it until the loop exits). */
        fc->fb_blocked -= 1;
        shell = PyList_GET_ITEM(op, 0);
        value = PyList_GET_ITEM(op, 9);
        Py_INCREF(shell);
        Py_INCREF(value);
        Py_INCREF(Py_None);
        if (PyList_SetItem(fc->flat_ops, (Py_ssize_t)opidx,
                           Py_None) < 0
                || list_append_int(fc->flat_free, opidx) < 0) {
            Py_DECREF(shell);
            Py_DECREF(value);
            goto out;
        }
        {
            int src = event_succeed_c(fc, shell, value);
            Py_DECREF(shell);
            Py_DECREF(value);
            if (src < 0)
                goto out;
        }
        rc = 0;
        goto out;
    }
    case F_RD_REQ:
    case F_WR_REQ: {
        int arc;
        if (flat_settle_c(fc, op, now, 1) < 0)
            goto out;
        if (op_set_int(op, 11, tag == F_RD_REQ ? F_RD_LOCK
                                               : F_WR_LOCK) < 0)
            goto out;
        arc = acquire_or_park(PyList_GET_ITEM(op, 17),
                              ~((now << PROC_BITS) | opidx));
        if (arc < 0)
            goto out;
        if (arc) {
            if (ring_append_word(fc->ring_append,
                                 (opidx << 3) | R_FLAT) < 0)
                goto out;
            (*fc->ring_scheduled)++;
        }
        rc = 0;
        goto out;
    }
    case F_RD_MEM: {
        int64_t home, pid;
        if (release_held(fc, PyList_GET_ITEM(op, 17), now) < 0)
            goto out;
        if (op_get_int(op, 16, &home) < 0
                || op_get_int(op, 14, &pid) < 0)
            goto out;
        if (home != pid)
            rc = flat_leg_c(fc, opidx, op, home, pid, 1, F_RD_DATA,
                            now, resume_p, resume_value);
        else
            rc = flat_done_c(fc, opidx, op, resume_p, resume_value);
        goto out;
    }
    case F_RD_FWD: {
        PyObject *ctx = PyList_GET_ITEM(op, 13);
        int64_t hit, svc;
        long long h;
        if (flat_settle_c(fc, op, now, 1) < 0)
            goto out;
        if (release_held(fc, PyList_GET_ITEM(op, 17), now) < 0)
            goto out;
        h = PyLong_AsLongLong(PyTuple_GET_ITEM(ctx, 8));
        if (h == -1 && PyErr_Occurred())
            goto out;
        hit = (int64_t)h;
        if (op_get_int(op, 20, &svc) < 0
                || op_set_int(op, 20, svc + hit) < 0)
            goto out;
        if (op_set_int(op, 11, F_RD_HIT) < 0)
            goto out;
        rc = flat_heap_row(fc, now + hit, opidx);
        goto out;
    }
    case F_RD_HIT:
    case F_WR_HIT: {
        int64_t source, pid;
        if (get_int_attr(PyList_GET_ITEM(op, 18), s_source,
                         &source) < 0
                || op_get_int(op, 14, &pid) < 0)
            goto out;
        rc = flat_leg_c(fc, opidx, op, source, pid, 1,
                        tag == F_RD_HIT ? F_RD_DATA : F_WR_DATA, now,
                        resume_p, resume_value);
        goto out;
    }
    case F_RD_DATA: {
        PyObject *plan = PyList_GET_ITEM(op, 18);
        PyObject *a;
        int truth;
        if (flat_settle_c(fc, op, now, 1) < 0)
            goto out;
        a = PyObject_GetAttr(plan, s_from_memory);
        if (a == NULL)
            goto out;
        truth = PyObject_IsTrue(a);
        Py_DECREF(a);
        if (truth < 0)
            goto out;
        if (!truth) {
            a = PyObject_GetAttr(plan, s_sharing_writeback);
            if (a == NULL)
                goto out;
            truth = PyObject_IsTrue(a);
            Py_DECREF(a);
            if (truth < 0)
                goto out;
            if (truth) {
                int64_t source, home;
                if (get_int_attr(plan, s_source, &source) < 0
                        || op_get_int(op, 16, &home) < 0)
                    goto out;
                if (source != home) {
                    /* Illinois sharing writeback, off the critical
                     * path: posted as its own flat op. */
                    PyObject *ctx = PyList_GET_ITEM(op, 13);
                    PyObject *srco = PyLong_FromLongLong(
                        (long long)source);
                    PyObject *r = NULL;
                    if (srco != NULL) {
                        r = PyObject_CallMethodObjArgs(
                            PyList_GET_ITEM(op, 1), s_post_fast, srco,
                            PyList_GET_ITEM(op, 16),
                            PyTuple_GET_ITEM(ctx, 4), s_shwb, NULL);
                        Py_DECREF(srco);
                    }
                    if (r == NULL)
                        goto out;
                    Py_DECREF(r);
                }
            }
        }
        rc = flat_done_c(fc, opidx, op, resume_p, resume_value);
        goto out;
    }
    case F_WR_MEM:
    case F_WR_FWD: {
        if (tag == F_WR_FWD && flat_settle_c(fc, op, now, 1) < 0)
            goto out;
        rc = flat_wr_join_c(fc, opidx, op, now, resume_p, resume_value);
        goto out;
    }
    case F_WR_GRANT:
    case F_WR_DATA:
        if (flat_settle_c(fc, op, now, 1) < 0)
            goto out;
        rc = flat_done_c(fc, opidx, op, resume_p, resume_value);
        goto out;
    default:
        /* Unknown tag: the Python twin decides (and raises). */
        rc = call_bound_i(fc->flat_wake_py, opidx);
        goto out;
    }
out:
    Py_DECREF(op);
    return rc;
}

/* -- the run loop -------------------------------------------------------- */

static PyObject *
csoa_run_fast(PyObject *module, PyObject *sim)
{
    PyObject *heap = NULL, *ring = NULL, *freelist = NULL, *c_meta = NULL,
        *payload = NULL, *sends = NULL;
    PyObject *ring_popleft = NULL, *ring_append = NULL, *compact_m = NULL,
        *finish_m = NULL, *crash_m = NULL, *flat_wake_m = NULL,
        *handle_yield_m = NULL, *throw_m = NULL,
        *execute_word_m = NULL;
    PyObject *flat_ops = NULL, *flat_free = NULL;
    PyObject *mctx = NULL, *mctx_trans = NULL;  /* borrowed from mctx */
    PyObject *result = NULL;
    FlatCtx fc = {0};
    int64_t now;
    int64_t executed = 0, ring_executed = 0, ring_scheduled = 0,
        recycled = 0;
    int rc = -1;  /* -1 error, 0 handoff, 1 done */

    if (!g_configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_csoa.configure() has not been called");
        return NULL;
    }

    heap = PyObject_GetAttr(sim, s_heap);
    ring = PyObject_GetAttr(sim, s_ring);
    freelist = PyObject_GetAttr(sim, s_free);
    c_meta = PyObject_GetAttr(sim, s_c_meta);
    payload = PyObject_GetAttr(sim, s_payload);
    sends = PyObject_GetAttr(sim, s_sends);
    if (heap == NULL || ring == NULL || freelist == NULL || c_meta == NULL
            || payload == NULL || sends == NULL)
        goto cleanup;
    if (!PyList_CheckExact(heap) || !PyList_CheckExact(freelist)
            || !PyList_CheckExact(payload) || !PyList_CheckExact(sends)) {
        PyErr_SetString(PyExc_TypeError,
                        "_csoa.run_fast: kernel containers are not lists");
        goto cleanup;
    }
    ring_popleft = PyObject_GetAttr(ring, s_popleft);
    ring_append = PyObject_GetAttr(ring, s_append);
    compact_m = PyObject_GetAttr(sim, s_compact);
    finish_m = PyObject_GetAttr(sim, s_finish);
    crash_m = PyObject_GetAttr(sim, s_crash);
    flat_wake_m = PyObject_GetAttr(sim, s_flat_wake);
    handle_yield_m = PyObject_GetAttr(sim, s_handle_yield);
    throw_m = PyObject_GetAttr(sim, s_throw);
    execute_word_m = PyObject_GetAttr(sim, s_execute_word);
    flat_ops = PyObject_GetAttr(sim, s_flat_ops);
    flat_free = PyObject_GetAttr(sim, s_flat_free);
    if (ring_popleft == NULL || ring_append == NULL || compact_m == NULL
            || finish_m == NULL || crash_m == NULL || flat_wake_m == NULL
            || handle_yield_m == NULL
            || throw_m == NULL || execute_word_m == NULL
            || flat_ops == NULL || flat_free == NULL)
        goto cleanup;
    if (!PyList_CheckExact(flat_ops) || !PyList_CheckExact(flat_free)) {
        PyErr_SetString(PyExc_TypeError,
                        "_csoa.run_fast: flat-op tables are not lists");
        goto cleanup;
    }
    fc.sim = sim;
    fc.heap = heap;
    fc.c_meta = c_meta;
    fc.flat_ops = flat_ops;
    fc.flat_free = flat_free;
    fc.ring_append = ring_append;
    fc.compact_m = compact_m;
    fc.flat_wake_py = flat_wake_m;
    fc.payload = payload;
    fc.freelist = freelist;
    fc.ring_scheduled = &ring_scheduled;
    fc.recycled = &recycled;
    /* The machine's native-transaction registration (None when the
     * run has no flat-capable machine). */
    mctx = PyObject_GetAttr(sim, s_flat_mctx);
    if (mctx == NULL)
        goto cleanup;
    if (PyTuple_CheckExact(mctx) && PyTuple_GET_SIZE(mctx) == 7)
        mctx_trans = PyTuple_GET_ITEM(mctx, 0);

    if (get_int_attr(sim, s_now, &now) < 0) {
        /* Clock already past int64: run on the pure-Python loop. */
        PyErr_Clear();
        rc = 0;
        goto flush;
    }

    for (;;) {
        int have_key = 0;
        int64_t key = 0, at = 0;
        int64_t p = -1;
        PyObject *value = NULL;  /* owned once set */

        /* -- pop: decode one event into (p, value) -------------------- */
        if (PyList_GET_SIZE(heap) > 0) {
            PyObject *key_obj = PyList_GET_ITEM(heap, 0);  /* borrowed */
            int overflow = 0;
            long long k = PyLong_AsLongLongAndOverflow(key_obj, &overflow);
            if (overflow || (k == -1 && PyErr_Occurred())) {
                /* Key beyond int64: hand off to the Python loop. */
                PyErr_Clear();
                rc = 0;
                goto flush;
            }
            key = (int64_t)k;
            at = key >> ROW_BITS;
            if (at <= now) {
                PyObject *popped;
                if (at < now) {
                    monotonicity_violation(now, PyUnicode_FromFormat(
                        "time went backwards: %lld < %lld",
                        (long long)at, (long long)now));
                    goto cleanup_flush;
                }
                popped = heap_pop_native(heap);
                if (popped == NULL)
                    goto cleanup_flush;
                Py_DECREF(popped);
                if (heap_check_order(heap, key, now) < 0)
                    goto cleanup_flush;
                have_key = 1;
            }
            else {
                Py_ssize_t rn = PyObject_Size(ring);
                if (rn < 0)
                    goto cleanup_flush;
                if (rn == 0) {
                    PyObject *popped = heap_pop_native(heap);
                    if (popped == NULL)
                        goto cleanup_flush;
                    Py_DECREF(popped);
                    if (heap_check_order(heap, key, now) < 0)
                        goto cleanup_flush;
                    now = at;
                    if (set_int_attr(sim, s_now, now) < 0)
                        goto cleanup_flush;
                    have_key = 1;
                }
                /* else: drain the ring first (have_key stays 0). */
            }
        }
        else {
            Py_ssize_t rn = PyObject_Size(ring);
            if (rn < 0)
                goto cleanup_flush;
            if (rn == 0) {
                rc = 1;  /* drained */
                goto flush;
            }
        }
        executed++;

        if (have_key) {
            /* Heap row: sleeps, flat-op wakes, legacy callables. */
            int64_t row = key & ROW_MASK;
            int64_t meta;
            int kind;
            if (list_append_int(freelist, row) < 0)
                goto cleanup_flush;
            if (seq_get_int(c_meta, row, &meta) < 0)
                goto cleanup_flush;
            kind = (int)(meta & 7);
            if (kind == K_RESUME_NONE) {
                p = meta >> 3;
                Py_INCREF(Py_None);
                value = Py_None;
            }
            else if (kind == K_FLAT) {
                /* Native flat-op wake.  A completed transaction hands
                 * back (caller, result): fall through to the drive
                 * section, which is `_advance` without the interpreter
                 * round-trip. */
                int64_t rp = -1;
                PyObject *rv = NULL;
                if (flat_wake_c(&fc, meta >> 3, now, &rp, &rv) < 0)
                    goto cleanup_flush;
                if (rp < 0)
                    continue;
                p = rp;
                value = rv;
            }
            else {  /* K_CALL */
                PyObject *action = PyList_GET_ITEM(payload, row);
                PyObject *r;
                Py_INCREF(action);
                if (payload_clear(payload, row) < 0) {
                    Py_DECREF(action);
                    goto cleanup_flush;
                }
                r = PyObject_CallNoArgs(action);
                Py_DECREF(action);
                if (r == NULL)
                    goto cleanup_flush;
                Py_DECREF(r);
                continue;
            }
        }
        else {
            PyObject *word_obj = PyObject_CallNoArgs(ring_popleft);
            int overflow = 0;
            long long e;
            if (word_obj == NULL)
                goto cleanup_flush;
            ring_executed++;
            e = PyLong_AsLongLongAndOverflow(word_obj, &overflow);
            if (overflow || (e == -1 && PyErr_Occurred())) {
                /* Oversized word (huge _R_VAL wait): method-form twin. */
                PyObject *r;
                PyErr_Clear();
                r = PyObject_CallOneArg(execute_word_m, word_obj);
                Py_DECREF(word_obj);
                if (r == NULL)
                    goto cleanup_flush;
                Py_DECREF(r);
                continue;
            }
            Py_DECREF(word_obj);
            if (e & 1) {
                /* Packed resume word: no row, pure decode. */
                int tag = (int)(e & 7);
                if (tag == R_NONE) {
                    p = e >> 3;
                    Py_INCREF(Py_None);
                    value = Py_None;
                }
                else if (tag == R_ZERO) {
                    p = e >> 3;
                    value = PyLong_FromLong(0);
                    if (value == NULL)
                        goto cleanup_flush;
                }
                else if (tag == R_VAL) {
                    p = (e >> 3) & PROC_MASK;
                    value = PyLong_FromLongLong((long long)(e >> VAL_SHIFT));
                    if (value == NULL)
                        goto cleanup_flush;
                }
                else {  /* R_FLAT */
                    /* Granted link/lock step; a home-local write can
                     * complete in the plan step, falling through to
                     * the drive section with the caller's resume. */
                    int64_t rp = -1;
                    PyObject *rv = NULL;
                    if (flat_step_c(&fc, e >> 3, now, &rp, &rv) < 0)
                        goto cleanup_flush;
                    if (rp < 0)
                        continue;
                    p = rp;
                    value = rv;
                }
            }
            else {
                /* Payload row on the ring. */
                int64_t row = e >> 1;
                int64_t meta;
                int kind;
                if (list_append_int(freelist, row) < 0)
                    goto cleanup_flush;
                if (seq_get_int(c_meta, row, &meta) < 0)
                    goto cleanup_flush;
                kind = (int)(meta & 7);
                if (kind == K_EVENT) {
                    PyObject *ev = PyList_GET_ITEM(payload, row);
                    PyObject *callbacks;
                    int inlined = 0, joined = 0;
                    Py_INCREF(ev);
                    if (payload_clear(payload, row) < 0) {
                        Py_DECREF(ev);
                        goto cleanup_flush;
                    }
                    callbacks = PyObject_GetAttr(ev, s_callbacks);
                    if (callbacks == NULL) {
                        Py_DECREF(ev);
                        goto cleanup_flush;
                    }
                    if (PyList_CheckExact(callbacks)
                            && PyList_GET_SIZE(callbacks) == 0) {
                        /* No waiters (fire-and-forget transmit
                         * shells): _dispatch only marks the event
                         * dispatched. */
                        int src = PyObject_SetAttr(ev, s_callbacks,
                                                   Py_None);
                        Py_DECREF(callbacks);
                        Py_DECREF(ev);
                        if (src < 0)
                            goto cleanup_flush;
                        continue;
                    }
                    if (PyList_CheckExact(callbacks)
                            && PyList_GET_SIZE(callbacks) == 1
                            && PyLong_CheckExact(
                                   PyList_GET_ITEM(callbacks, 0))) {
                        PyObject *exc = PyObject_GetAttr(ev, s_exception);
                        if (exc == NULL) {
                            Py_DECREF(callbacks);
                            Py_DECREF(ev);
                            goto cleanup_flush;
                        }
                        if (exc == Py_None) {
                            /* Sole waiter is a process: resume it
                             * inside this dispatch event.  Extract the
                             * index before clearing _callbacks. */
                            long long wp = PyLong_AsLongLong(
                                PyList_GET_ITEM(callbacks, 0));
                            if (wp == -1 && PyErr_Occurred()) {
                                PyErr_Clear();  /* absurd; dispatch */
                            }
                            else if (wp >= 0) {
                                if (PyObject_SetAttr(ev, s_callbacks,
                                                     Py_None) < 0) {
                                    Py_DECREF(exc);
                                    Py_DECREF(callbacks);
                                    Py_DECREF(ev);
                                    goto cleanup_flush;
                                }
                                value = PyObject_GetAttr(ev, s_value);
                                if (value == NULL) {
                                    Py_DECREF(exc);
                                    Py_DECREF(callbacks);
                                    Py_DECREF(ev);
                                    goto cleanup_flush;
                                }
                                p = (int64_t)wp;
                                inlined = 1;
                            }
                            else {
                                /* A write's invalidation join parked
                                 * as ~opidx: count the round inside
                                 * this dispatch event. */
                                int jrc = flat_join_round_c(
                                    &fc, ~(int64_t)wp);
                                if (jrc > 0
                                        && PyObject_SetAttr(ev, s_callbacks,
                                                            Py_None) < 0)
                                    jrc = -1;
                                if (jrc < 0) {
                                    Py_DECREF(exc);
                                    Py_DECREF(callbacks);
                                    Py_DECREF(ev);
                                    goto cleanup_flush;
                                }
                                joined = jrc;
                            }
                        }
                        Py_DECREF(exc);
                    }
                    Py_DECREF(callbacks);
                    if (joined) {
                        Py_DECREF(ev);
                        continue;
                    }
                    if (!inlined) {
                        PyObject *r =
                            PyObject_CallMethodNoArgs(ev, s_dispatch);
                        Py_DECREF(ev);
                        if (r == NULL)
                            goto cleanup_flush;
                        Py_DECREF(r);
                        continue;
                    }
                    Py_DECREF(ev);
                }
                else if (kind == K_EVWAIT) {
                    PyObject *ev = PyList_GET_ITEM(payload, row);
                    PyObject *exc;
                    Py_INCREF(ev);
                    if (payload_clear(payload, row) < 0) {
                        Py_DECREF(ev);
                        goto cleanup_flush;
                    }
                    exc = PyObject_GetAttr(ev, s_exception);
                    if (exc == NULL) {
                        Py_DECREF(ev);
                        goto cleanup_flush;
                    }
                    if (exc != Py_None) {
                        int trc = call_bound_io(throw_m, meta >> 3, exc);
                        Py_DECREF(exc);
                        Py_DECREF(ev);
                        if (trc < 0)
                            goto cleanup_flush;
                        continue;
                    }
                    Py_DECREF(exc);
                    p = meta >> 3;
                    value = PyObject_GetAttr(ev, s_value);
                    Py_DECREF(ev);
                    if (value == NULL)
                        goto cleanup_flush;
                }
                else {  /* K_CALL */
                    PyObject *action = PyList_GET_ITEM(payload, row);
                    PyObject *r;
                    Py_INCREF(action);
                    if (payload_clear(payload, row) < 0) {
                        Py_DECREF(action);
                        goto cleanup_flush;
                    }
                    r = PyObject_CallNoArgs(action);
                    Py_DECREF(action);
                    if (r == NULL)
                        goto cleanup_flush;
                    Py_DECREF(r);
                    continue;
                }
            }
        }

        /* -- drive: resume the generator, handle its yield ------------ */
drive:
        {
            PyObject *send = PyList_GET_ITEM(sends, (Py_ssize_t)p);
            PyObject *y;
            Py_INCREF(send);
            y = PyObject_CallOneArg(send, value);
            Py_DECREF(send);
            Py_DECREF(value);
            value = NULL;
            if (y == NULL) {
                if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                    PyObject *etype, *evalue, *etb, *retval;
                    int frc;
                    PyErr_Fetch(&etype, &evalue, &etb);
                    PyErr_NormalizeException(&etype, &evalue, &etb);
                    retval = evalue ? PyObject_GetAttr(evalue, s_value)
                                    : NULL;
                    if (retval == NULL) {
                        PyErr_Clear();
                        Py_INCREF(Py_None);
                        retval = Py_None;
                    }
                    Py_XDECREF(etype);
                    Py_XDECREF(evalue);
                    Py_XDECREF(etb);
                    frc = call_bound_io(finish_m, p, retval);
                    Py_DECREF(retval);
                    if (frc < 0)
                        goto cleanup_flush;
                    continue;
                }
                else {
                    /* Any other exception: mirror `self._crash(p, exc)`
                     * (which re-raises under fail_fast). */
                    PyObject *etype, *evalue, *etb;
                    int crc;
                    PyErr_Fetch(&etype, &evalue, &etb);
                    PyErr_NormalizeException(&etype, &evalue, &etb);
                    if (evalue == NULL) {
                        PyErr_Restore(etype, evalue, etb);
                        goto cleanup_flush;
                    }
                    if (etb != NULL)
                        PyException_SetTraceback(evalue, etb);
                    crc = call_bound_io(crash_m, p, evalue);
                    Py_XDECREF(etype);
                    Py_XDECREF(evalue);
                    Py_XDECREF(etb);
                    if (crc < 0)
                        goto cleanup_flush;
                    continue;
                }
            }
            if (PyLong_CheckExact(y)) {
                int overflow = 0;
                long long yv = PyLong_AsLongLongAndOverflow(y, &overflow);
                if (overflow || yv < 0 || (yv > 0 && now + yv > MAX_AT)) {
                    /* Negative delays raise there; oversized delays
                     * push arbitrary-precision heap keys there. */
                    int hrc = call_bound_io(handle_yield_m, p, y);
                    Py_DECREF(y);
                    if (hrc < 0)
                        goto cleanup_flush;
                    continue;
                }
                if (yv > 0) {
                    /* Plain sleep: future heap row. */
                    int64_t row = alloc_top_row(sim, compact_m);
                    PyObject *keyo;
                    int prc;
                    if (row < 0) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    if (seq_set_int(c_meta, row, p << 3) < 0) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    keyo = PyLong_FromLongLong(
                        (long long)(((now + yv) << ROW_BITS) | row));
                    if (keyo == NULL) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    prc = heap_push_native(heap, keyo);
                    Py_DECREF(keyo);
                    Py_DECREF(y);
                    if (prc < 0)
                        goto cleanup_flush;
                    continue;
                }
                /* Zero-delay: same-time redispatch via the ring. */
                Py_DECREF(y);
                if (ring_append_word(ring_append, (p << 3) | R_NONE) < 0)
                    goto cleanup_flush;
                ring_scheduled++;
                continue;
            }
            if (PyTuple_CheckExact(y) && PyTuple_GET_SIZE(y) == 4) {
                /* `yield (transact_flat, pid, addr, is_write)`: a
                 * deferred flat-transaction request.  The registered
                 * callable builds natively; any other callable is
                 * invoked like the Python twins do and must return
                 * FLAT_TX. */
                if (mctx_trans != NULL
                        && PyTuple_GET_ITEM(y, 0) == mctx_trans) {
                    int64_t rp = -1;
                    PyObject *rv = NULL;
                    int nrc = flat_tx_native(&fc, mctx, y, p, now,
                                             &rp, &rv);
                    Py_DECREF(y);
                    if (nrc < 0)
                        goto cleanup_flush;
                    if (rp >= 0) {  /* defensive; cannot finish */
                        p = rp;
                        value = rv;
                        goto drive;
                    }
                    continue;
                }
                {
                    PyObject *r = PyObject_CallFunctionObjArgs(
                        PyTuple_GET_ITEM(y, 0), PyTuple_GET_ITEM(y, 1),
                        PyTuple_GET_ITEM(y, 2), PyTuple_GET_ITEM(y, 3),
                        NULL);
                    Py_DECREF(y);
                    if (r == NULL)
                        goto cleanup_flush;
                    if (r != g_flat_tx) {
                        Py_DECREF(r);
                        PyErr_SetString(g_simerror,
                                        "deferred-call tuple did not "
                                        "start a flat transaction");
                        goto cleanup_flush;
                    }
                    y = r;  /* falls into the FLAT_TX branch below */
                }
            }
            if (y == g_flat_tx) {
                /* `yield FLAT_TX`: record the caller in the freshly
                 * built op's waiter slot, then run the op's first
                 * step natively -- the request leg's first link, or
                 * the home-lock attempt on a home-local miss. */
                int64_t pending;
                PyObject *fop;
                Py_DECREF(y);
                if (get_int_attr(sim, s_pending_flat_op, &pending) < 0)
                    goto cleanup_flush;
                if (pending < 0
                        || pending >= (int64_t)PyList_GET_SIZE(flat_ops)) {
                    PyErr_SetString(g_simerror,
                                    "FLAT_TX yielded with no pending "
                                    "flat op");
                    goto cleanup_flush;
                }
                fop = PyList_GET_ITEM(flat_ops, (Py_ssize_t)pending);
                if (op_set_int(fop, 12, p) < 0)
                    goto cleanup_flush;
                if (PyList_GET_ITEM(fop, 3) == Py_None) {
                    int arc = acquire_or_park(
                        PyList_GET_ITEM(fop, 17),
                        ~((now << PROC_BITS) | pending));
                    if (arc < 0)
                        goto cleanup_flush;
                    if (arc) {
                        if (ring_append_word(
                                ring_append,
                                (pending << 3) | R_FLAT) < 0)
                            goto cleanup_flush;
                        ring_scheduled++;
                    }
                }
                else {
                    int64_t rp = -1;
                    PyObject *rv = NULL;
                    if (flat_step_c(&fc, pending, now, &rp, &rv) < 0)
                        goto cleanup_flush;
                    if (rp >= 0) {  /* defensive; a leg cannot finish */
                        p = rp;
                        value = rv;
                        goto drive;
                    }
                }
                continue;
            }
            {
                int isacq = PyObject_IsInstance(y, g_acquirable);
                if (isacq < 0) {
                    Py_DECREF(y);
                    goto cleanup_flush;
                }
                if (isacq) {
                    /* `yield resource`: inlined try_acquire, else park
                     * as a packed (wait_start << PROC_BITS) | p int. */
                    int64_t in_use, capacity, grants;
                    PyObject *waiters;
                    Py_ssize_t wn;
                    if (get_int_attr(y, s_in_use, &in_use) < 0
                            || get_int_attr(y, s_capacity, &capacity) < 0) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    waiters = PyObject_GetAttr(y, s_waiters);
                    if (waiters == NULL) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    wn = PyObject_Size(waiters);
                    if (wn < 0) {
                        Py_DECREF(waiters);
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    if (in_use < capacity && wn == 0) {
                        if (set_int_attr(y, s_in_use, in_use + 1) < 0
                                || get_int_attr(y, s_grants, &grants) < 0
                                || set_int_attr(y, s_grants,
                                                grants + 1) < 0) {
                            Py_DECREF(waiters);
                            Py_DECREF(y);
                            goto cleanup_flush;
                        }
                        Py_DECREF(waiters);
                        Py_DECREF(y);
                        if (ring_append_word(ring_append,
                                             (p << 3) | R_ZERO) < 0)
                            goto cleanup_flush;
                        ring_scheduled++;
                        continue;
                    }
                    else {
                        PyObject *packed = PyLong_FromLongLong(
                            (long long)((now << PROC_BITS) | p));
                        PyObject *r = NULL;
                        if (packed != NULL) {
                            r = PyObject_CallMethodOneArg(waiters, s_append,
                                                          packed);
                            Py_DECREF(packed);
                        }
                        Py_DECREF(waiters);
                        Py_DECREF(y);
                        if (r == NULL)
                            goto cleanup_flush;
                        Py_DECREF(r);
                        continue;
                    }
                }
            }
            {
                int isev = PyObject_IsInstance(y, g_event);
                if (isev < 0) {
                    Py_DECREF(y);
                    goto cleanup_flush;
                }
                if (isev) {
                    PyObject *callbacks = PyObject_GetAttr(y, s_callbacks);
                    if (callbacks == NULL) {
                        Py_DECREF(y);
                        goto cleanup_flush;
                    }
                    if (callbacks == Py_None) {
                        /* Already dispatched: K_EVWAIT row, recycled
                         * from the free list when possible. */
                        int64_t row;
                        Py_ssize_t fn = PyList_GET_SIZE(freelist);
                        Py_DECREF(callbacks);
                        if (fn > 0) {
                            long long rv = PyLong_AsLongLong(
                                PyList_GET_ITEM(freelist, fn - 1));
                            if (rv == -1 && PyErr_Occurred()) {
                                Py_DECREF(y);
                                goto cleanup_flush;
                            }
                            if (PyList_SetSlice(freelist, fn - 1, fn,
                                                NULL) < 0) {
                                Py_DECREF(y);
                                goto cleanup_flush;
                            }
                            row = (int64_t)rv;
                            recycled++;
                        }
                        else {
                            row = alloc_top_row(sim, compact_m);
                            if (row < 0) {
                                Py_DECREF(y);
                                goto cleanup_flush;
                            }
                        }
                        if (seq_set_int(c_meta, row,
                                        (p << 3) | K_EVWAIT) < 0) {
                            Py_DECREF(y);
                            goto cleanup_flush;
                        }
                        /* payload[row] = y (list takes our ref). */
                        if (PyList_SetItem(payload, (Py_ssize_t)row,
                                           y) < 0) {
                            goto cleanup_flush;
                        }
                        if (ring_append_word(ring_append, row << 1) < 0)
                            goto cleanup_flush;
                        ring_scheduled++;
                        continue;
                    }
                    else {
                        PyObject *pnum = PyLong_FromLongLong((long long)p);
                        int arc = -1;
                        if (pnum != NULL) {
                            if (PyList_CheckExact(callbacks)) {
                                arc = PyList_Append(callbacks, pnum);
                            }
                            else {
                                PyObject *r = PyObject_CallMethodOneArg(
                                    callbacks, s_append, pnum);
                                arc = (r == NULL) ? -1 : 0;
                                Py_XDECREF(r);
                            }
                            Py_DECREF(pnum);
                        }
                        Py_DECREF(callbacks);
                        Py_DECREF(y);
                        if (arc < 0)
                            goto cleanup_flush;
                        continue;
                    }
                }
            }
            if (y == g_turn) {
                Py_DECREF(y);
                if (ring_append_word(ring_append, (p << 3) | R_ZERO) < 0)
                    goto cleanup_flush;
                ring_scheduled++;
                continue;
            }
            /* Unknown yield: _handle_yield raises with the process
             * name, after the same _blocked bookkeeping. */
            {
                int hrc = call_bound_io(handle_yield_m, p, y);
                Py_DECREF(y);
                if (hrc < 0)
                    goto cleanup_flush;
                continue;
            }
        }
    }

flush:
    if (flat_flush_counters(&fc) < 0)
        goto cleanup;
    if (flush_counters(sim, executed, ring_executed, ring_scheduled,
                       recycled) < 0)
        goto cleanup;
    result = PyLong_FromLong(rc);
    goto cleanup;

cleanup_flush:
    /* Error exit: flush counters while preserving the exception. */
    {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        if (flat_flush_counters(&fc) < 0)
            PyErr_Clear();
        if (flush_counters(sim, executed, ring_executed, ring_scheduled,
                           recycled) < 0)
            PyErr_Clear();
        PyErr_Restore(etype, evalue, etb);
    }

cleanup:
    Py_XDECREF(fc.fabric);
    Py_XDECREF(mctx);
    Py_XDECREF(heap);
    Py_XDECREF(ring);
    Py_XDECREF(freelist);
    Py_XDECREF(c_meta);
    Py_XDECREF(payload);
    Py_XDECREF(sends);
    Py_XDECREF(ring_popleft);
    Py_XDECREF(ring_append);
    Py_XDECREF(compact_m);
    Py_XDECREF(finish_m);
    Py_XDECREF(crash_m);
    Py_XDECREF(flat_wake_m);
    Py_XDECREF(handle_yield_m);
    Py_XDECREF(throw_m);
    Py_XDECREF(execute_word_m);
    Py_XDECREF(flat_ops);
    Py_XDECREF(flat_free);
    return result;
}

/* -- module wiring ------------------------------------------------------- */

static PyObject *
csoa_configure(PyObject *module, PyObject *args)
{
    PyObject *acquirable, *event, *turn, *simerror, *inverror, *flat_tx;
    if (!PyArg_ParseTuple(args, "OOOOOO", &acquirable, &event, &turn,
                          &simerror, &inverror, &flat_tx))
        return NULL;
    Py_INCREF(acquirable);
    Py_XDECREF(g_acquirable);
    g_acquirable = acquirable;
    Py_INCREF(event);
    Py_XDECREF(g_event);
    g_event = event;
    Py_INCREF(turn);
    Py_XDECREF(g_turn);
    g_turn = turn;
    Py_INCREF(simerror);
    Py_XDECREF(g_simerror);
    g_simerror = simerror;
    Py_INCREF(inverror);
    Py_XDECREF(g_inverror);
    g_inverror = inverror;
    Py_INCREF(flat_tx);
    Py_XDECREF(g_flat_tx);
    g_flat_tx = flat_tx;
    g_configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef csoa_methods[] = {
    {"run_fast", csoa_run_fast, METH_O,
     "Drive the SoA event loop to completion; returns 1 when the "
     "queues drained, 0 on int64-range handoff."},
    {"configure", csoa_configure, METH_VARARGS,
     "configure(Acquirable, Event, TURN, SimulationError, "
     "InvariantError, FLAT_TX): "
     "inject the engine types/singletons this module dispatches on."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef csoa_module = {
    PyModuleDef_HEAD_INIT,
    "repro.engine._csoa",
    "C port of the SoA event kernel's hot loop (see module source).",
    -1,
    csoa_methods,
};

PyMODINIT_FUNC
PyInit__csoa(void)
{
    PyObject *m;
#define INTERN(var, text)                                   \
    do {                                                    \
        var = PyUnicode_InternFromString(text);             \
        if (var == NULL)                                    \
            return NULL;                                    \
    } while (0)
    INTERN(s_heap, "_heap");
    INTERN(s_ring, "_ring");
    INTERN(s_free, "_free");
    INTERN(s_c_meta, "_c_meta");
    INTERN(s_payload, "_payload");
    INTERN(s_sends, "_sends");
    INTERN(s_popleft, "popleft");
    INTERN(s_append, "append");
    INTERN(s_now, "_now");
    INTERN(s_top, "_top");
    INTERN(s_cap, "_cap");
    INTERN(s_compact, "_compact");
    INTERN(s_finish, "_finish");
    INTERN(s_crash, "_crash");
    INTERN(s_flat_wake, "_flat_wake");
    INTERN(s_handle_yield, "_handle_yield");
    INTERN(s_throw, "_throw");
    INTERN(s_execute_word, "_execute_word");
    INTERN(s_dispatch, "_dispatch");
    INTERN(s_callbacks, "_callbacks");
    INTERN(s_exception, "_exception");
    INTERN(s_value, "value");
    INTERN(s_in_use, "in_use");
    INTERN(s_capacity, "capacity");
    INTERN(s_waiters, "_waiters");
    INTERN(s_grants, "grants");
    INTERN(s_events_executed, "events_executed");
    INTERN(s_ring_executed, "_ring_executed");
    INTERN(s_ring_scheduled, "_ring_scheduled");
    INTERN(s_rows_recycled, "_rows_recycled");
    INTERN(s_blocked, "_blocked");
    INTERN(s_succeed, "succeed");
    INTERN(s_release, "release");
    INTERN(s_messages, "messages");
    INTERN(s_bytes_carried, "bytes_carried");
    INTERN(s_busy_ns, "busy_ns");
    INTERN(s_bytes_transported, "bytes_transported");
    INTERN(s_total_latency_ns, "total_latency_ns");
    INTERN(s_total_contention_ns, "total_contention_ns");
    INTERN(s_flat_ops, "_flat_ops");
    INTERN(s_flat_free, "_flat_free");
    INTERN(s_pending_flat_op, "_pending_flat_op");
    INTERN(s_flat_join_late, "_flat_join_late");
    INTERN(s_post_fast, "post_fast");
    INTERN(s_post_writeback, "_post_writeback");
    INTERN(s_source, "source");
    INTERN(s_from_memory, "from_memory");
    INTERN(s_sharing_writeback, "sharing_writeback");
    INTERN(s_had_data, "had_data");
    INTERN(s_writeback, "writeback");
    INTERN(s_shwb, "shwb");
    INTERN(s_flat_fail, "_flat_fail");
    INTERN(s_invalidated, "invalidated");
    INTERN(s_fast, "fast");
    INTERN(s_hit, "hit");
    INTERN(s_flat_posts, "_flat_posts");
    INTERN(s_flat_tx, "flat_tx");
    INTERN(s_flat_mctx, "_flat_mctx");
    INTERN(s_triggered, "triggered");
    INTERN(s_spawn_inv, "_spawn_inv");
    INTERN(s_name, "name");
    INTERN(s_total_wait_ns, "total_wait_ns");
#undef INTERN
    m = PyModule_Create(&csoa_module);
    return m;
}
