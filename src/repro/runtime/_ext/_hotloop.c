/* _hotloop: the compiled per-step scheduler core.
 *
 * Two things live here, both optional accelerations of pure-Python code
 * with bit-identical observable behaviour (asserted by the parity tests):
 *
 *  1. ``BatchedRandom`` — a C MT19937 producing the exact draw sequence of
 *     ``random.Random(seed).randrange(n)`` (CPython's init_by_array seeding
 *     and top-bits rejection sampling) for 1 <= n < 2**32, the only range
 *     the scheduler's picks and ``select`` draws produce; without the
 *     extension the scheduler draws from ``random.Random`` itself.  Because
 *     the scheduler and the ``select`` tie-breaker share one stream, the C
 *     object is a *drop-in state holder*: Python callers invoke its
 *     ``randrange`` method, the compiled loop below reads the same MT state
 *     directly, and the interleaved sequence is unchanged.  Seeding
 *     copies the init_genrand(19650218) state init_by_array starts from,
 *     filled once at module init, and keys a |seed| < 2**32 as one word
 *     read in C; a wider seed's key comes from its to_bytes.
 *
 *  2. ``drive(sched)`` — the fused scheduler loop: stop check, budget,
 *     RNG pick, continuation switch and yield bookkeeping with no Python
 *     frames in between.  A goroutine that ended goes through the Python
 *     ``_after_resume`` (dequeue, ``ended_at``, ``panicked``, its trace
 *     event), so traced runs take this loop too, and so do runs with a
 *     pick log (``sched.pick_log``, read once per entry), which gets the
 *     same ``(step, runnable snapshot, index)`` record per pick as the
 *     pure loop writes.  The C RNG above is drawn from inline; any
 *     other RNG (the explorer's scripted choices) through its bound
 *     ``randrange``, called once per pick (draw_in_python).  A scheduler
 *     whose runnable list, stop mode, pick log, trace, timer heap or
 *     horizon is not of the type Scheduler builds raises TypeError.  When
 *     no goroutine is runnable the loop fires the due timers itself (see
 *     fire_due_timers) and returns ``"idle"`` only once no live timer is
 *     left below the scheduler's clock horizon (``_horizon``, a float:
 *     ``inf`` unless a fault injector is attached).  A sleeper's timer
 *     holds the goroutine, which the loop readies with no Python call,
 *     writing the trace records Scheduler.ready would; it calls every
 *     other callback itself, after the ``timer.fire`` record
 *     Scheduler.fire_timers would write, with no goroutine current.  A
 *     fire that leaves nothing runnable counts one against the step
 *     budget, as in the pure loop.  A faulted run enters between the
 *     injector's due steps: the scheduler clamps ``_budget`` so the loop
 *     returns at the next one, and sets ``_horizon`` to the earliest
 *     ``after_time`` a fault still waits for, so no timer at or past it
 *     fires here and the injector is pulsed before the clock crosses it
 *     (Scheduler._drive_to_due_step).
 *
 * Goroutine fields are reached through slot offsets cached from the class
 * ``__slots__`` member descriptors at bind() time — an attribute read is a
 * single pointer load.  The scheduler itself is dict-backed; the loop keeps
 * its counters in C locals and writes them back on every exit path and
 * before timer callbacks run, while ``_current`` (which primitives running
 * *inside* a switched-to goroutine read) is kept accurate step by step,
 * and so is ``_steps`` in a traced run (its events stamp it).  The
 * trace's ``_records`` and ``active`` are slots of Trace too, reached the
 * same way.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* MT19937 (CPython-compatible)                                        */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

typedef struct {
    PyObject_HEAD
    uint32_t mt[MT_N];
    int mti;
} BatchedRandomObject;

/* mt_init_genrand(19650218), the state init_by_array starts every seed
 * from: a constant, filled once by PyInit__hotloop. */
static uint32_t mt_base[MT_N];

static void
mt_init_by_array(BatchedRandomObject *self, uint32_t *init_key, size_t key_length)
{
    size_t i, j, k;
    memcpy(self->mt, mt_base, sizeof(mt_base));
    self->mti = MT_N;
    i = 1; j = 0;
    k = (MT_N > key_length ? MT_N : key_length);
    for (; k; k--) {
        self->mt[i] = (self->mt[i] ^
                       ((self->mt[i - 1] ^ (self->mt[i - 1] >> 30)) * 1664525U))
                      + init_key[j] + (uint32_t)j;
        i++; j++;
        if (i >= MT_N) { self->mt[0] = self->mt[MT_N - 1]; i = 1; }
        if (j >= key_length) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        self->mt[i] = (self->mt[i] ^
                       ((self->mt[i - 1] ^ (self->mt[i - 1] >> 30)) * 1566083941U))
                      - (uint32_t)i;
        i++;
        if (i >= MT_N) { self->mt[0] = self->mt[MT_N - 1]; i = 1; }
    }
    self->mt[0] = 0x80000000U;
}

static uint32_t
mt_genrand(BatchedRandomObject *self)
{
    uint32_t y;
    static const uint32_t mag01[2] = {0U, MT_MATRIX_A};
    uint32_t *mt = self->mt;

    if (self->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (mt[MT_N - 1] & MT_UPPER_MASK) | (mt[0] & MT_LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        self->mti = 0;
    }
    y = mt[self->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* CPython's _randbelow for n with bit_length <= 32: take the top k bits of
 * one MT word, reject until < n.  randrange and drive's inline draw both
 * come here, and n < 2**32 is the only range either asks for. */
static uint32_t
mt_randrange32(BatchedRandomObject *self, uint32_t n)
{
    int k = 32 - __builtin_clz(n);          /* n >= 1 */
    int shift = 32 - k;
    for (;;) {
        uint32_t r = mt_genrand(self) >> shift;
        if (r < n)
            return r;
    }
}

/* ------------------------------------------------------------------ */
/* BatchedRandom type                                                  */
/* ------------------------------------------------------------------ */

static int
br_init(BatchedRandomObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed = NULL;
    PyObject *index = NULL, *absval = NULL, *bits_obj = NULL, *bytes = NULL;
    uint32_t *key = NULL;
    int rc = -1;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &seed))
        return -1;
    index = seed != NULL ? PyNumber_Index(seed) : PyLong_FromLong(0);
    if (index == NULL)
        goto done;
    {
        /* |seed| < 2**32: the key is one word, read without a method call. */
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(index, &overflow);
        if (!overflow && v > -0x100000000LL && v < 0x100000000LL) {
            uint32_t word = (uint32_t)(v < 0 ? -v : v);
            mt_init_by_array(self, &word, 1);
            rc = 0;
            goto done;
        }
    }
    absval = PyNumber_Absolute(index);
    if (absval == NULL)
        goto done;
    bits_obj = PyObject_CallMethod(absval, "bit_length", NULL);
    if (bits_obj == NULL)
        goto done;
    {
        Py_ssize_t bits = PyLong_AsSsize_t(bits_obj);
        if (bits < 0 && PyErr_Occurred())
            goto done;
        /* CPython: key is the absolute value as 32-bit chunks, low first;
         * zero seeds use a single zero chunk. */
        size_t keymax = bits == 0 ? 1 : ((size_t)bits - 1) / 32 + 1;
        key = PyMem_Calloc(keymax, 4);
        if (key == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        bytes = PyObject_CallMethod(absval, "to_bytes", "ns",
                                    (Py_ssize_t)(keymax * 4), "little");
        if (bytes == NULL)
            goto done;
        memcpy(key, PyBytes_AS_STRING(bytes), keymax * 4);
#if PY_BIG_ENDIAN
        for (size_t i = 0; i < keymax; i++) {
            uint32_t w = key[i];
            key[i] = ((w & 0xffU) << 24) | ((w & 0xff00U) << 8) |
                     ((w >> 8) & 0xff00U) | (w >> 24);
        }
#endif
        mt_init_by_array(self, key, keymax);
    }
    rc = 0;
done:
    PyMem_Free(key);
    Py_XDECREF(bytes);
    Py_XDECREF(bits_obj);
    Py_XDECREF(absval);
    Py_XDECREF(index);
    return rc;
}

/* Scheduler picks and select draws ask for n in [1, 2**32); nothing
 * else calls this, so any other n is refused rather than drawn. */
static PyObject *
br_randrange(BatchedRandomObject *self, PyObject *arg)
{
    int overflow = 0;
    long long n = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (n == -1 && !overflow && PyErr_Occurred())
        return NULL;
    if (overflow || n <= 0 || n > 0xffffffffLL) {
        PyErr_SetString(PyExc_ValueError,
                        "randrange(n) needs 1 <= n < 2**32");
        return NULL;
    }
    return PyLong_FromUnsignedLong(mt_randrange32(self, (uint32_t)n));
}

static PyMethodDef br_methods[] = {
    {"randrange", (PyCFunction)br_randrange, METH_O,
     "Uniform draw from range(n), 1 <= n < 2**32; CPython's rejection "
     "sampling."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject BatchedRandom_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_hotloop.BatchedRandom",
    .tp_basicsize = sizeof(BatchedRandomObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Drop-in randrange(n) source matching random.Random(seed) "
              "exactly (compiled).",
    .tp_methods = br_methods,
    .tp_init = (initproc)br_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* bind(): cache classes, slot offsets and interned constants          */
/* ------------------------------------------------------------------ */

static int hl_bound = 0;

static PyTypeObject *tk_go_type = NULL;     /* TaskletGoroutine */
static Py_ssize_t off_state = -1;           /* Goroutine.state */
static Py_ssize_t off_gid = -1;             /* Goroutine.gid */
static Py_ssize_t off_tk = -1;              /* TaskletGoroutine._tk */
static PyObject *switch_meth = NULL;        /* unbound Tasklet.switch */

static PyObject *st_running = NULL, *st_runnable = NULL, *st_blocked = NULL,
                *st_done = NULL, *st_panicked = NULL, *st_killed = NULL,
                *terminal_set = NULL;

/* The trace a sleeper's wake writes to: Trace's slots, the two event
 * kinds and the shared empty info mapping, all from the runtime's own
 * classes. */
static PyTypeObject *trace_type = NULL;     /* Trace */
static Py_ssize_t off_records = -1;         /* Trace._records */
static Py_ssize_t off_active = -1;          /* Trace.active */
static PyObject *ev_timer_fire = NULL, *ev_go_unblock = NULL,
                *no_info = NULL, *int_zero = NULL;

static PyObject *s_runnable_attr = NULL, *s_rng = NULL, *s_stop_mode = NULL,
                *s_panicked_attr = NULL, *s_budget = NULL, *s_budget_used = NULL,
                *s_steps = NULL, *s_time_limit = NULL, *s_clock = NULL,
                *s_now = NULL, *s_current = NULL, *s_after_resume = NULL,
                *s_trace = NULL, *s_active = NULL, *s_pick_log = NULL,
                *s_horizon = NULL, *s_heap = NULL, *s_randrange = NULL;

static PyObject *heappop_fn = NULL;         /* heapq.heappop */

static PyObject *v_stopped = NULL, *v_timeout = NULL, *v_steps = NULL,
                *v_idle = NULL;

static int
member_offset(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        Py_DECREF(descr);
        PyErr_Format(PyExc_TypeError,
                     "%s is not a slot member descriptor", name);
        return -1;
    }
    *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return 0;
}

static PyObject *
hl_bind(PyObject *module, PyObject *args)
{
    PyObject *goro_cls, *tk_goro_cls, *gstate_cls, *tasklet_cls,
             *trace_cls, *kind_cls, *empty_info;
    if (!PyArg_ParseTuple(args, "OOOOOOO", &goro_cls, &tk_goro_cls,
                          &gstate_cls, &tasklet_cls, &trace_cls, &kind_cls,
                          &empty_info))
        return NULL;
    if (member_offset(goro_cls, "state", &off_state) < 0)
        return NULL;
    if (member_offset(goro_cls, "gid", &off_gid) < 0)
        return NULL;
    if (member_offset(tk_goro_cls, "_tk", &off_tk) < 0)
        return NULL;
    if (member_offset(trace_cls, "_records", &off_records) < 0)
        return NULL;
    if (member_offset(trace_cls, "active", &off_active) < 0)
        return NULL;
    if (!PyType_Check(tk_goro_cls) || !PyType_Check(trace_cls)) {
        PyErr_SetString(PyExc_TypeError,
                        "expected the TaskletGoroutine and Trace classes");
        return NULL;
    }
    Py_INCREF(tk_goro_cls);
    Py_XSETREF(tk_go_type, (PyTypeObject *)tk_goro_cls);
    Py_INCREF(trace_cls);
    Py_XSETREF(trace_type, (PyTypeObject *)trace_cls);
    Py_INCREF(empty_info);
    Py_XSETREF(no_info, empty_info);

#define FETCH(dst, cls, name)                                       \
    do {                                                            \
        PyObject *v = PyObject_GetAttrString(cls, name);            \
        if (v == NULL)                                              \
            return NULL;                                            \
        Py_XSETREF(dst, v);                                         \
    } while (0)
    FETCH(st_running, gstate_cls, "RUNNING");
    FETCH(st_runnable, gstate_cls, "RUNNABLE");
    FETCH(st_blocked, gstate_cls, "BLOCKED");
    FETCH(st_done, gstate_cls, "DONE");
    FETCH(st_panicked, gstate_cls, "PANICKED");
    FETCH(st_killed, gstate_cls, "KILLED");
    FETCH(terminal_set, gstate_cls, "TERMINAL");
    FETCH(ev_timer_fire, kind_cls, "TIMER_FIRE");
    FETCH(ev_go_unblock, kind_cls, "GO_UNBLOCK");
#undef FETCH

    if (tasklet_cls != Py_None) {
        PyObject *m = PyObject_GetAttrString(tasklet_cls, "switch");
        if (m == NULL)
            return NULL;
        Py_XSETREF(switch_meth, m);
    }
    else {
        Py_CLEAR(switch_meth);
    }
    hl_bound = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* drive(sched)                                                        */
/* ------------------------------------------------------------------ */

static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    return *(PyObject **)((char *)obj + off);   /* borrowed; may be NULL */
}

static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject **p = (PyObject **)((char *)obj + off);
    PyObject *old = *p;
    Py_INCREF(value);
    *p = value;
    Py_XDECREF(old);
}

static inline int
state_is_terminal(PyObject *st)
{
    if (st == st_done || st == st_panicked || st == st_killed)
        return 1;
    if (st == st_running || st == st_runnable)
        return 0;
    /* Unknown string object (shouldn't happen: states are always GState
     * constants); fall back to a set lookup so behaviour stays correct. */
    return PySet_Contains(terminal_set, st) == 1;
}

static long long
attr_as_longlong(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    long long out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (out == -1 && PyErr_Occurred())
        *err = 1;
    return out;
}

/* Append one pick-log record, (step, tuple(runnable), idx), to picks. */
static int
log_pick(PyObject *picks, long long step, PyObject *runnable, PyObject *ix)
{
    PyObject *st = PyLong_FromLongLong(step);
    PyObject *snap = PyList_AsTuple(runnable);
    PyObject *rec = (st && snap) ? PyTuple_New(3) : NULL;
    if (rec == NULL) {
        Py_XDECREF(st);
        Py_XDECREF(snap);
        return -1;
    }
    PyTuple_SET_ITEM(rec, 0, st);
    PyTuple_SET_ITEM(rec, 1, snap);
    Py_INCREF(ix);
    PyTuple_SET_ITEM(rec, 2, ix);
    int rc = PyList_Append(picks, rec);
    Py_DECREF(rec);
    return rc;
}

/* A pick drawn from any other RNG (the explorer's scripted choices): what
 * Scheduler._advance does.  The RNG sees the scheduler as the pure loop
 * leaves it: ``_steps`` already counts this pick (a traced run has
 * written it) and no goroutine is current.  Call
 * ``randrange(len(runnable))``, log the drawn value, then take
 * ``runnable[idx]``, so a drawn value the list rejects raises there as in
 * the pure loop, and a negative one counts from the end.  Out of line, so
 * the BatchedRandom path of the loop keeps its inline draw.  Returns a new
 * reference, or NULL with an error set. */
static Py_NO_INLINE PyObject *
draw_in_python(PyObject *sched, PyObject *randrange, PyObject *runnable,
               long long step, int traced, PyObject *picks)
{
    if (!traced) {
        PyObject *stp = PyLong_FromLongLong(step);
        int rc = stp == NULL ? -1 : PyObject_SetAttr(sched, s_steps, stp);
        Py_XDECREF(stp);
        if (rc < 0)
            return NULL;
    }
    if (PyObject_SetAttr(sched, s_current, Py_None) < 0)
        return NULL;
    PyObject *n = PyLong_FromSsize_t(PyList_GET_SIZE(runnable));
    if (n == NULL)
        return NULL;
    PyObject *ix = PyObject_CallOneArg(randrange, n);
    Py_DECREF(n);
    if (ix == NULL)
        return NULL;
    PyObject *g = NULL;
    if (picks == NULL || log_pick(picks, step, runnable, ix) == 0)
        g = PyObject_GetItem(runnable, ix);
    Py_DECREF(ix);
    return g;
}

/* The timer heap holds TimerHandle entries, ``[deadline, seq, callback]``
 * lists (repro.runtime.clock); the callback slot is None once the timer is
 * cancelled or has fired. */
static int
check_timer(PyObject *entry)
{
    if (PyList_Check(entry) && PyList_GET_SIZE(entry) == 3)
        return 0;
    PyErr_SetString(PyExc_TypeError, "timer heap entry is not a TimerHandle");
    return -1;
}

/* Append one scheduler-context record, ``(steps, now, 0, kind, obj,
 * _NO_INFO)``, to the trace's kept log: what Scheduler.emit appends for
 * ``timer.fire`` and ``go.unblock`` with no goroutine current. */
static int
append_record(PyObject *records, PyObject *steps, PyObject *now,
              PyObject *kind, PyObject *obj)
{
    PyObject *rec = PyTuple_New(6);
    if (rec == NULL)
        return -1;
    Py_INCREF(steps);
    PyTuple_SET_ITEM(rec, 0, steps);
    Py_INCREF(now);
    PyTuple_SET_ITEM(rec, 1, now);
    Py_INCREF(int_zero);
    PyTuple_SET_ITEM(rec, 2, int_zero);
    Py_INCREF(kind);
    PyTuple_SET_ITEM(rec, 3, kind);
    Py_INCREF(obj);
    PyTuple_SET_ITEM(rec, 4, obj);
    Py_INCREF(no_info);
    PyTuple_SET_ITEM(rec, 5, no_info);
    int rc = PyList_Append(records, rec);
    Py_DECREF(rec);
    return rc;
}

/* The ``timer.fire`` record Scheduler.fire_timers writes for every
 * entry, when the trace records (Trace.active); *records is then its
 * kept log, else NULL. */
static int
record_fire(PyObject *trace, PyObject *steps, PyObject *now,
            PyObject **records)
{
    PyObject *flag = slot_get(trace, off_active);
    int active = flag == NULL ? -1 : PyObject_IsTrue(flag);
    *records = active > 0 ? slot_get(trace, off_records) : NULL;
    if (active < 0 || (active && (*records == NULL ||
                                  !PyList_Check(*records)))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "trace is not recordable");
        return -1;
    }
    if (*records == NULL)
        return 0;
    return append_record(*records, steps, now, ev_timer_fire, Py_None);
}

/* A sleeper's wake entry (Runtime.sleep, Runtime.external_wait): what
 * Scheduler.fire_timers does for a goroutine entry, with no Python call.
 * The ``timer.fire`` record, then Scheduler.ready: only a BLOCKED
 * goroutine becomes RUNNABLE, joins ``_runnable`` and gets a
 * ``go.unblock`` record (an earlier callback of the batch, or an
 * injected wakeup, may have readied it already). */
static int
wake_sleeper(PyObject *g, PyObject *runnable, PyObject *trace,
             PyObject *steps, PyObject *now)
{
    PyObject *records;
    if (record_fire(trace, steps, now, &records) < 0)
        return -1;
    PyObject *st = slot_get(g, off_state);
    int blocked = st == NULL ? 0
                             : PyObject_RichCompareBool(st, st_blocked, Py_EQ);
    if (blocked <= 0)
        return blocked;
    slot_set(g, off_state, st_runnable);
    if (PyList_Append(runnable, g) < 0)
        return -1;
    if (records == NULL)
        return 0;
    PyObject *gid = slot_get(g, off_gid);
    if (gid == NULL) {
        PyErr_SetString(PyExc_AttributeError, "goroutine has no gid");
        return -1;
    }
    return append_record(records, steps, now, ev_go_unblock, gid);
}

/* The idle path, with nothing runnable: VirtualClock.advance_to_next()
 * followed by Scheduler.fire_timers().  Drops cancelled heads; if the
 * earliest live deadline is at or past ``horizon`` it stops there, with
 * the clock unmoved.  Otherwise it moves clock.now to that deadline, pops
 * every entry due then and empties its callback slot before any callback
 * runs (a callback cannot cancel a timer due at the same time).  Then it
 * fires the popped entries in order: a sleeper's wake entry (the
 * goroutine itself, see wake_sleeper) is readied here, and any other
 * callback is called here, after its ``timer.fire`` record and with no
 * goroutine current, so no entry goes through Python's fire_timers.
 * Returns 1 when timers fired, 0 when no live timer is left below the
 * horizon, -1 on error. */
static int
fire_due_timers(PyObject *sched, PyObject *clock, PyObject *heap,
                PyObject *runnable, PyObject *trace, long long steps,
                PyObject *horizon)
{
    PyObject *head, *now, *callbacks, *r, *records, *steps_obj = NULL;
    for (;;) {
        if (PyList_GET_SIZE(heap) == 0)
            return 0;
        head = PyList_GET_ITEM(heap, 0);
        if (check_timer(head) < 0)
            return -1;
        if (PyList_GET_ITEM(head, 2) != Py_None)
            break;
        r = PyObject_CallOneArg(heappop_fn, heap);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    {
        PyObject *deadline = PyList_GET_ITEM(head, 0);
        Py_INCREF(deadline);
        int beyond = PyObject_RichCompareBool(deadline, horizon, Py_GE);
        Py_DECREF(deadline);
        if (beyond != 0)
            return beyond < 0 ? -1 : 0;
    }
    now = PyObject_GetAttr(clock, s_now);
    if (now == NULL)
        return -1;
    {
        PyObject *deadline = PyList_GET_ITEM(head, 0);
        Py_INCREF(deadline);
        int later = PyObject_RichCompareBool(deadline, now, Py_GT);
        if (later > 0 && PyObject_SetAttr(clock, s_now, deadline) < 0)
            later = -1;
        if (later < 0) {
            Py_DECREF(deadline);
            Py_DECREF(now);
            return -1;
        }
        if (later)
            Py_SETREF(now, deadline);
        else
            Py_DECREF(deadline);
    }
    callbacks = PyList_New(0);
    if (callbacks == NULL) {
        Py_DECREF(now);
        return -1;
    }
    while (PyList_GET_SIZE(heap) > 0) {
        head = PyList_GET_ITEM(heap, 0);
        if (check_timer(head) < 0)
            goto fail;
        PyObject *deadline = PyList_GET_ITEM(head, 0);
        Py_INCREF(deadline);
        int due = PyObject_RichCompareBool(deadline, now, Py_LE);
        Py_DECREF(deadline);
        if (due < 0)
            goto fail;
        if (!due)
            break;
        head = PyObject_CallOneArg(heappop_fn, heap);  /* the entry above */
        if (head == NULL)
            goto fail;
        PyObject *callback = PyList_GET_ITEM(head, 2);
        if (callback != Py_None) {
            /* Fired: empty the slot; its reference to callback is ours. */
            Py_INCREF(Py_None);
            PyList_SET_ITEM(head, 2, Py_None);
            int appended = PyList_Append(callbacks, callback);
            Py_DECREF(callback);
            if (appended < 0) {
                Py_DECREF(head);
                goto fail;
            }
        }
        Py_DECREF(head);
    }

    if ((steps_obj = PyLong_FromLongLong(steps)) == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
        PyObject *callback = PyList_GET_ITEM(callbacks, i);
        if (Py_TYPE(callback) == tk_go_type) {
            if (wake_sleeper(callback, runnable, trace, steps_obj, now) < 0)
                goto fail;
            continue;
        }
        if (record_fire(trace, steps_obj, now, &records) < 0 ||
            PyObject_SetAttr(sched, s_current, Py_None) < 0 ||
            (r = PyObject_CallNoArgs(callback)) == NULL)
            goto fail;
        Py_DECREF(r);
        /* Later records read the clock as the callback left it. */
        Py_SETREF(now, PyObject_GetAttr(clock, s_now));
        if (now == NULL)
            goto fail;
    }
    Py_DECREF(steps_obj);
    Py_DECREF(callbacks);
    Py_DECREF(now);
    return 1;

fail:
    Py_XDECREF(steps_obj);
    Py_DECREF(callbacks);
    Py_XDECREF(now);
    return -1;
}

static int
write_counters(PyObject *sched, long long budget_used, long long steps)
{
    PyObject *bu = PyLong_FromLongLong(budget_used);
    PyObject *stp = PyLong_FromLongLong(steps);
    int failed = (bu == NULL || stp == NULL ||
                  PyObject_SetAttr(sched, s_budget_used, bu) < 0 ||
                  PyObject_SetAttr(sched, s_steps, stp) < 0);
    Py_XDECREF(bu);
    Py_XDECREF(stp);
    return failed ? -1 : 0;
}

/* *reached = (clock.now >= limit), the pure loop's time-limit test. */
static int
clock_reached(PyObject *clock, double limit, int *reached)
{
    PyObject *now_obj = PyObject_GetAttr(clock, s_now);
    if (now_obj == NULL)
        return -1;
    double now = PyFloat_AsDouble(now_obj);
    Py_DECREF(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    *reached = (now >= limit);
    return 0;
}

static PyObject *
hl_drive(PyObject *module, PyObject *sched)
{
    if (!hl_bound) {
        PyErr_SetString(PyExc_RuntimeError, "_hotloop.bind() has not run");
        return NULL;
    }

    PyObject *runnable = NULL, *rng_obj = NULL, *stop_mode = NULL,
             *panicked = NULL, *clock = NULL, *heap = NULL,
             *time_limit = NULL, *picks = NULL, *trace = NULL,
             *horizon = NULL;
    PyObject *stop_g = NULL;          /* borrowed from stop_mode; None
                                       * under ("panic", None) */
    BatchedRandomObject *rng = NULL;  /* the C RNG, drawn from inline */
    PyObject *randrange = NULL;       /* any other RNG's bound randrange */
    PyObject *verdict = NULL;         /* borrowed from the v_* constants */
    int failed = 0;
    int time_exceeded = 0, traced = 0;
    double limit = 0.0;
    long long budget = 0, budget_used = 0, steps = 0;

    if ((runnable = PyObject_GetAttr(sched, s_runnable_attr)) == NULL ||
        (rng_obj = PyObject_GetAttr(sched, s_rng)) == NULL ||
        (stop_mode = PyObject_GetAttr(sched, s_stop_mode)) == NULL ||
        (picks = PyObject_GetAttr(sched, s_pick_log)) == NULL ||
        (trace = PyObject_GetAttr(sched, s_trace)) == NULL ||
        (clock = PyObject_GetAttr(sched, s_clock)) == NULL ||
        (heap = PyObject_GetAttr(clock, s_heap)) == NULL ||
        (horizon = PyObject_GetAttr(sched, s_horizon)) == NULL)
        goto fail_entry;
    /* The loop reads these through PyList_GET_* and slot offsets, so each
     * must be what Scheduler builds. */
    if (!PyList_CheckExact(runnable) || !PyTuple_CheckExact(stop_mode) ||
        PyTuple_GET_SIZE(stop_mode) != 2 ||
        ((stop_g = PyTuple_GET_ITEM(stop_mode, 1)) != Py_None &&
         Py_TYPE(stop_g) != tk_go_type) ||
        (picks != Py_None && !PyList_CheckExact(picks)) ||
        Py_TYPE(trace) != trace_type || !PyList_CheckExact(heap) ||
        !PyFloat_Check(horizon)) {
        PyErr_SetString(PyExc_TypeError,
                        "drive() needs a Scheduler's runnable list, stop "
                        "mode, pick log, Trace, timer heap and horizon");
        goto fail_entry;
    }
    if (picks == Py_None)
        Py_CLEAR(picks);

    {
        int err = 0;
        budget = attr_as_longlong(sched, s_budget, &err);
        budget_used = attr_as_longlong(sched, s_budget_used, &err);
        steps = attr_as_longlong(sched, s_steps, &err);
        /* Only trace events read ``_steps`` while a goroutine runs. */
        traced = !err && attr_as_longlong(trace, s_active, &err);
        if (err)
            goto fail_entry;
    }
    if (Py_TYPE(rng_obj) == &BatchedRandom_Type)
        rng = (BatchedRandomObject *)rng_obj;
    else if ((randrange = PyObject_GetAttr(rng_obj, s_randrange)) == NULL)
        goto fail_entry;
    panicked = PyObject_GetAttr(sched, s_panicked_attr);
    if (panicked == NULL)
        goto fail_entry;
    time_limit = PyObject_GetAttr(sched, s_time_limit);
    if (time_limit == NULL)
        goto fail_entry;
    if (time_limit != Py_None) {
        limit = PyFloat_AsDouble(time_limit);
        if (limit == -1.0 && PyErr_Occurred())
            goto fail_entry;
        if (clock_reached(clock, limit, &time_exceeded) < 0)
            goto fail_entry;
    }

    /* ---------------- the loop ---------------- */
    for (;;) {
        /* Stop check — same order as the pure _advance. */
        PyObject *stop_st = stop_g == Py_None ? NULL
                                              : slot_get(stop_g, off_state);
        if (panicked != Py_None ||
            (stop_st != NULL && state_is_terminal(stop_st))) {
            verdict = v_stopped;
            break;
        }
        /* The virtual clock is frozen while goroutines run: it moves only
         * on the idle path below, which re-evaluates the limit, and in the
         * injector's clock jumps, which run outside this loop. */
        if (time_exceeded) { verdict = v_timeout; break; }
        if (budget_used >= budget) { verdict = v_steps; break; }
        Py_ssize_t nrun = PyList_GET_SIZE(runnable);
        if (nrun == 0) {
            /* Timer callbacks run Python that may read the counters. */
            if (write_counters(sched, budget_used, steps) < 0) {
                failed = 1;
                break;
            }
            int fired = fire_due_timers(sched, clock, heap, runnable, trace,
                                        steps, horizon);
            if (fired < 0) { failed = 1; break; }
            if (fired == 0) { verdict = v_idle; break; }
            /* A fire that woke nobody takes no step, so it counts against
             * the budget (as in Scheduler.run_until_quiescent): a ticker
             * nobody reads cannot keep the run alive. */
            if (PyList_GET_SIZE(runnable) == 0)
                budget_used++;
            /* Re-read what a fresh drive entry would: panicked, and the
             * time limit, now that the clock has moved. */
            Py_SETREF(panicked, PyObject_GetAttr(sched, s_panicked_attr));
            if (panicked == NULL) { failed = 1; break; }
            if (time_limit != Py_None &&
                clock_reached(clock, limit, &time_exceeded) < 0) {
                failed = 1;
                break;
            }
            continue;
        }
        budget_used++;
        steps++;
        if (traced) {  /* events stamp the step they run in */
            PyObject *stp = PyLong_FromLongLong(steps);
            if (stp == NULL || PyObject_SetAttr(sched, s_steps, stp) < 0) {
                Py_XDECREF(stp);
                failed = 1;
                break;
            }
            Py_DECREF(stp);
        }
        PyObject *g;
        if (rng != NULL) {
            uint32_t idx = mt_randrange32(rng, (uint32_t)nrun);
            if (picks != NULL) {
                PyObject *ix = PyLong_FromUnsignedLong(idx);
                int rc = ix == NULL ? -1 : log_pick(picks, steps, runnable, ix);
                Py_XDECREF(ix);
                if (rc < 0) {
                    failed = 1;
                    break;
                }
            }
            g = PyList_GET_ITEM(runnable, idx);
            Py_INCREF(g);
        }
        else if ((g = draw_in_python(sched, randrange, runnable, steps,
                                     traced, picks)) == NULL) {
            failed = 1;
            break;
        }

        if (Py_TYPE(g) != tk_go_type || switch_meth == NULL) {
            /* drive() runs only on the tasklet vehicle, where every
             * goroutine is a TaskletGoroutine and Tasklet.switch is
             * bound; anything else is a scheduler bug. */
            Py_DECREF(g);
            PyErr_SetString(PyExc_RuntimeError,
                            "drive() needs tasklet goroutines");
            failed = 1;
            break;
        }
        /* Fast path: slot writes + a direct continuation switch
         * (this is resume() with the Python frames scraped off). */
        slot_set(g, off_state, st_running);
        if (PyObject_SetAttr(sched, s_current, g) < 0) {
            Py_DECREF(g);
            failed = 1;
            break;
        }
        PyObject *tk = slot_get(g, off_tk);
        if (tk == NULL || tk == Py_None) {
            Py_DECREF(g);
            PyErr_SetString(PyExc_RuntimeError,
                            "tasklet goroutine has no continuation");
            failed = 1;
            break;
        }
        PyObject *sargs[1] = {tk};
        PyObject *r = PyObject_Vectorcall(switch_meth, sargs, 1, NULL);
        if (r == NULL) {
            Py_DECREF(g);
            failed = 1;
            break;
        }
        Py_DECREF(r);
        PyObject *st = slot_get(g, off_state);
        if (st == st_running) {
            slot_set(g, off_state, st_runnable);
        }
        else if (st != NULL && state_is_terminal(st)) {
            /* Ended: the pure loop's bookkeeping, with no goroutine
             * current (dequeue, ended_at, panicked, the end event). */
            if (PyObject_SetAttr(sched, s_current, Py_None) < 0 ||
                (r = PyObject_CallMethodOneArg(sched, s_after_resume,
                                               g)) == NULL) {
                Py_DECREF(g);
                failed = 1;
                break;
            }
            Py_DECREF(r);
            Py_SETREF(panicked, PyObject_GetAttr(sched, s_panicked_attr));
            if (panicked == NULL) {
                Py_DECREF(g);
                failed = 1;
                break;
            }
        }
        /* BLOCKED: block() already dequeued it before yielding. */
        Py_DECREF(g);
    }

    /* Write the loop-local counters back and clear _current, on the
     * failure exit too (the pure centralized loop leaves _current None
     * between decisions, and so after a draw that raised). */
    {
        PyObject *exc_type = NULL, *exc_val = NULL, *exc_tb = NULL;
        if (failed)
            PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
        int wb_failed = write_counters(sched, budget_used, steps) < 0 ||
                        PyObject_SetAttr(sched, s_current, Py_None) < 0;
        if (failed)
            PyErr_Restore(exc_type, exc_val, exc_tb);
        else if (wb_failed)
            failed = 1;
    }

fail_entry:  /* an entry failure leaves verdict NULL */
    Py_XDECREF(randrange);
    Py_XDECREF(trace);
    Py_XDECREF(picks);
    Py_XDECREF(time_limit);
    Py_XDECREF(horizon);
    Py_XDECREF(heap);
    Py_XDECREF(clock);
    Py_XDECREF(panicked);
    Py_XDECREF(stop_mode);
    Py_XDECREF(rng_obj);
    Py_XDECREF(runnable);
    if (failed || verdict == NULL)
        return NULL;
    Py_INCREF(verdict);
    return verdict;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef hl_methods[] = {
    {"bind", hl_bind, METH_VARARGS,
     "bind(Goroutine, TaskletGoroutine, GState, TaskletOrNone, Trace, "
     "EventKind, NO_INFO): cache slot offsets, state constants, the "
     "continuation switch and what a sleeper's wake records."},
    {"drive", hl_drive, METH_O,
     "drive(scheduler) -> verdict str."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hl_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_hotloop",
    .m_doc = "Compiled per-step scheduler loop and MT19937 BatchedRandom.",
    .m_size = -1,
    .m_methods = hl_methods,
};

PyMODINIT_FUNC
PyInit__hotloop(void)
{
    PyObject *m = PyModule_Create(&hl_module);
    if (m == NULL)
        return NULL;
    if (PyType_Ready(&BatchedRandom_Type) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    mt_base[0] = 19650218U;
    for (int i = 1; i < MT_N; i++)
        mt_base[i] = 1812433253U * (mt_base[i - 1] ^ (mt_base[i - 1] >> 30))
                     + (uint32_t)i;
    Py_INCREF(&BatchedRandom_Type);
    if (PyModule_AddObject(m, "BatchedRandom",
                           (PyObject *)&BatchedRandom_Type) < 0) {
        Py_DECREF(&BatchedRandom_Type);
        Py_DECREF(m);
        return NULL;
    }

#define INTERN(var, text)                                   \
    do {                                                    \
        var = PyUnicode_InternFromString(text);             \
        if (var == NULL) {                                  \
            Py_DECREF(m);                                   \
            return NULL;                                    \
        }                                                   \
    } while (0)
    INTERN(s_runnable_attr, "_runnable");
    INTERN(s_rng, "rng");
    INTERN(s_stop_mode, "_stop_mode");
    INTERN(s_panicked_attr, "panicked");
    INTERN(s_budget, "_budget");
    INTERN(s_budget_used, "_budget_used");
    INTERN(s_steps, "_steps");
    INTERN(s_time_limit, "_time_limit");
    INTERN(s_clock, "clock");
    INTERN(s_now, "now");
    INTERN(s_current, "_current");
    INTERN(s_after_resume, "_after_resume");
    INTERN(s_trace, "trace");
    INTERN(s_active, "active");
    INTERN(s_pick_log, "pick_log");
    INTERN(s_horizon, "_horizon");
    INTERN(s_heap, "_heap");
    INTERN(s_randrange, "randrange");
    INTERN(v_stopped, "stopped");
    INTERN(v_timeout, "timeout");
    INTERN(v_steps, "steps");
    INTERN(v_idle, "idle");
#undef INTERN
    int_zero = PyLong_FromLong(0);
    if (int_zero == NULL) {
        Py_DECREF(m);
        return NULL;
    }

    PyObject *heapq = PyImport_ImportModule("heapq");
    if (heapq == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    heappop_fn = PyObject_GetAttrString(heapq, "heappop");
    Py_DECREF(heapq);
    if (heappop_fn == NULL) {
        Py_DECREF(m);
        return NULL;
    }

    return m;
}
