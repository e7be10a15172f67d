/* _hotloop: the compiled per-step scheduler core.
 *
 * Two things live here, both optional accelerations of pure-Python code
 * with bit-identical observable behaviour (asserted by the parity tests):
 *
 *  1. ``BatchedRandom`` — a C MT19937 producing the exact draw sequence of
 *     ``random.Random(seed).randrange(n)`` (CPython's init_by_array seeding
 *     and top-bits rejection sampling), replacing
 *     ``repro.runtime.fastrand.BatchedRandom``.  Because the scheduler, the
 *     ``select`` tie-breaker and the fault injector all share one stream,
 *     the C object is a *drop-in state holder*: Python callers invoke its
 *     ``randrange`` method, the compiled loop below reads the same MT state
 *     directly, and the interleaved sequence is unchanged.
 *
 *  2. ``drive(sched)`` — the fused scheduler loop: stop check, budget,
 *     RNG pick, continuation switch and after-resume bookkeeping with no
 *     Python frames in between.  Only runs when nothing observable differs
 *     from the pure loop: no trace consumer, no injector, no observe hooks,
 *     structured stop conditions, and the scheduler's RNG is the C type
 *     above.  Anything else returns None and the pure loop takes over.
 *
 * Goroutine fields are reached through slot offsets cached from the class
 * ``__slots__`` member descriptors at bind() time — an attribute read is a
 * single pointer load.  The scheduler itself is dict-backed; the loop keeps
 * its counters in C locals and writes them back on every exit path, while
 * ``_current`` (which primitives running *inside* a switched-to goroutine
 * read) is kept accurate step by step.
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
    PyObject *seed;          /* the seed object handed to __init__ */
    uint32_t mt[MT_N];
    int mti;
} BatchedRandomObject;

static void
mt_init_genrand(BatchedRandomObject *self, uint32_t s)
{
    int mti;
    self->mt[0] = s;
    for (mti = 1; mti < MT_N; mti++) {
        self->mt[mti] =
            (1812433253U * (self->mt[mti - 1] ^ (self->mt[mti - 1] >> 30)) + mti);
    }
    self->mti = mti;
}

static void
mt_init_by_array(BatchedRandomObject *self, uint32_t *init_key, size_t key_length)
{
    size_t i, j, k;
    mt_init_genrand(self, 19650218U);
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
 * one MT word, reject until < n.  This is also exactly what the pure
 * BatchedRandom replays from its buffered words. */
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
    if (seed == NULL) {
        seed = PyLong_FromLong(0);
        if (seed == NULL)
            return -1;
    }
    else {
        Py_INCREF(seed);
    }

    index = PyNumber_Index(seed);
    if (index == NULL)
        goto done;
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
    Py_XSETREF(self->seed, seed);
    seed = NULL;
    rc = 0;
done:
    PyMem_Free(key);
    Py_XDECREF(bytes);
    Py_XDECREF(bits_obj);
    Py_XDECREF(absval);
    Py_XDECREF(index);
    Py_XDECREF(seed);
    return rc;
}

static void
br_dealloc(BatchedRandomObject *self)
{
    Py_XDECREF(self->seed);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* getrandbits(k): identical value construction to the pure BatchedRandom
 * (32-bit words low-order first, a partial top word takes the word's top
 * bits).  Cold path — only completeness and tests use it. */
static PyObject *
br_getrandbits(BatchedRandomObject *self, PyObject *arg)
{
    Py_ssize_t k = PyLong_AsSsize_t(arg);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    if (k < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "number of bits must be non-negative");
        return NULL;
    }
    if (k == 0)
        return PyLong_FromLong(0);
    if (k <= 32)
        return PyLong_FromUnsignedLong(mt_genrand(self) >> (32 - k));

    Py_ssize_t words = k / 32, rem = k % 32;
    Py_ssize_t total = words + (rem ? 1 : 0);
    uint32_t *buf = PyMem_Malloc((size_t)total * 4);
    if (buf == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < words; i++)
        buf[i] = mt_genrand(self);
    if (rem)
        buf[words] = mt_genrand(self) >> (32 - rem);
#if PY_BIG_ENDIAN
    for (Py_ssize_t i = 0; i < total; i++) {
        uint32_t w = buf[i];
        buf[i] = ((w & 0xffU) << 24) | ((w & 0xff00U) << 8) |
                 ((w >> 8) & 0xff00U) | (w >> 24);
    }
#endif
    PyObject *result = _PyLong_FromByteArray((unsigned char *)buf,
                                             (size_t)total * 4, 1, 0);
    PyMem_Free(buf);
    return result;
}

static PyObject *
br_randrange(BatchedRandomObject *self, PyObject *arg)
{
    int overflow = 0;
    long long n = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (n == -1 && !overflow && PyErr_Occurred())
        return NULL;

    if (!overflow) {
        if (n <= 0) {
            PyErr_SetString(PyExc_ValueError, "empty range for randrange()");
            return NULL;
        }
        if (n <= 0xffffffffLL)
            return PyLong_FromUnsignedLong(
                mt_randrange32(self, (uint32_t)n));
        /* 33..63 bits: two words low-order first, partial top word. */
        {
            uint64_t un = (uint64_t)n;
            int k = 64 - __builtin_clzll(un);
            int rem = k - 32;             /* 1..31 */
            for (;;) {
                uint64_t v = (uint64_t)mt_genrand(self);
                v |= (uint64_t)(mt_genrand(self) >> (32 - rem)) << 32;
                if (v < un)
                    return PyLong_FromUnsignedLongLong(v);
            }
        }
    }
    if (overflow < 0) {
        PyErr_SetString(PyExc_ValueError, "empty range for randrange()");
        return NULL;
    }
    /* Arbitrarily wide n: rejection loop over big-int getrandbits. */
    {
        PyObject *bits_obj = PyObject_CallMethod(arg, "bit_length", NULL);
        if (bits_obj == NULL)
            return NULL;
        for (;;) {
            PyObject *r = br_getrandbits(self, bits_obj);
            if (r == NULL) {
                Py_DECREF(bits_obj);
                return NULL;
            }
            int lt = PyObject_RichCompareBool(r, arg, Py_LT);
            if (lt < 0) {
                Py_DECREF(r);
                Py_DECREF(bits_obj);
                return NULL;
            }
            if (lt) {
                Py_DECREF(bits_obj);
                return r;
            }
            Py_DECREF(r);
        }
    }
}

static PyObject *
br_repr(BatchedRandomObject *self)
{
    return PyUnicode_FromFormat("<BatchedRandom seed=%S>",
                                self->seed ? self->seed : Py_None);
}

static PyMethodDef br_methods[] = {
    {"randrange", (PyCFunction)br_randrange, METH_O,
     "Uniform draw from range(n); CPython's rejection sampling."},
    {"getrandbits", (PyCFunction)br_getrandbits, METH_O,
     "Buffered getrandbits: identical output, word-at-a-time source."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef br_members[] = {
    {"seed", T_OBJECT_EX, offsetof(BatchedRandomObject, seed), 0,
     "the seed this stream was constructed from"},
    {NULL},
};

static PyTypeObject BatchedRandom_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_hotloop.BatchedRandom",
    .tp_basicsize = sizeof(BatchedRandomObject),
    .tp_dealloc = (destructor)br_dealloc,
    .tp_repr = (reprfunc)br_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Drop-in randrange(n) source matching random.Random(seed) "
              "exactly (compiled).",
    .tp_methods = br_methods,
    .tp_members = br_members,
    .tp_init = (initproc)br_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* bind(): cache classes, slot offsets and interned constants          */
/* ------------------------------------------------------------------ */

static int hl_bound = 0;

static PyTypeObject *tk_go_type = NULL;     /* TaskletGoroutine */
static Py_ssize_t off_state = -1;           /* Goroutine.state */
static Py_ssize_t off_ended_at = -1;        /* Goroutine.ended_at */
static Py_ssize_t off_tk = -1;              /* TaskletGoroutine._tk */
static PyObject *switch_meth = NULL;        /* unbound Tasklet.switch */

static PyObject *st_running = NULL, *st_runnable = NULL, *st_done = NULL,
                *st_panicked = NULL, *st_killed = NULL, *terminal_set = NULL;

static PyObject *s_runnable_attr = NULL, *s_rng = NULL, *s_stop_mode = NULL,
                *s_panicked_attr = NULL, *s_budget = NULL, *s_budget_used = NULL,
                *s_steps = NULL, *s_time_limit = NULL, *s_clock = NULL,
                *s_now = NULL, *s_current = NULL;

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
    PyObject *goro_cls, *tk_goro_cls, *gstate_cls, *tasklet_cls;
    if (!PyArg_ParseTuple(args, "OOOO",
                          &goro_cls, &tk_goro_cls, &gstate_cls, &tasklet_cls))
        return NULL;
    if (member_offset(goro_cls, "state", &off_state) < 0)
        return NULL;
    if (member_offset(goro_cls, "ended_at", &off_ended_at) < 0)
        return NULL;
    if (member_offset(tk_goro_cls, "_tk", &off_tk) < 0)
        return NULL;
    if (!PyType_Check(tk_goro_cls)) {
        PyErr_SetString(PyExc_TypeError, "expected TaskletGoroutine class");
        return NULL;
    }
    Py_INCREF(tk_goro_cls);
    Py_XSETREF(tk_go_type, (PyTypeObject *)tk_goro_cls);

#define FETCH(dst, name)                                            \
    do {                                                            \
        PyObject *v = PyObject_GetAttrString(gstate_cls, name);     \
        if (v == NULL)                                              \
            return NULL;                                            \
        Py_XSETREF(dst, v);                                         \
    } while (0)
    FETCH(st_running, "RUNNING");
    FETCH(st_runnable, "RUNNABLE");
    FETCH(st_done, "DONE");
    FETCH(st_panicked, "PANICKED");
    FETCH(st_killed, "KILLED");
    FETCH(terminal_set, "TERMINAL");
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

/* Remove g from the runnable list by identity (Goroutine defines no __eq__,
 * so this matches ``list.remove`` exactly). */
static void
runnable_remove(PyObject *runnable, PyObject *g)
{
    Py_ssize_t m = PyList_GET_SIZE(runnable);
    for (Py_ssize_t i = 0; i < m; i++) {
        if (PyList_GET_ITEM(runnable, i) == g) {
            PyList_SetSlice(runnable, i, i + 1, NULL);
            return;
        }
    }
}

static PyObject *
hl_drive(PyObject *module, PyObject *sched)
{
    if (!hl_bound) {
        PyErr_SetString(PyExc_RuntimeError, "_hotloop.bind() has not run");
        return NULL;
    }

    PyObject *runnable = NULL, *rng_obj = NULL, *stop_mode = NULL,
             *panicked = NULL, *clock = NULL, *now_obj = NULL,
             *time_limit = NULL;
    PyObject *stop_g = NULL;          /* borrowed from stop_mode */
    BatchedRandomObject *rng = NULL;
    PyObject *verdict = NULL;         /* borrowed from the v_* constants */
    int failed = 0;
    int stop_main = 0;
    int time_exceeded = 0;
    long long budget = 0, budget_used = 0, steps = 0;

    runnable = PyObject_GetAttr(sched, s_runnable_attr);
    if (runnable == NULL || !PyList_CheckExact(runnable))
        goto ineligible;
    rng_obj = PyObject_GetAttr(sched, s_rng);
    if (rng_obj == NULL || Py_TYPE(rng_obj) != &BatchedRandom_Type)
        goto ineligible;
    rng = (BatchedRandomObject *)rng_obj;
    stop_mode = PyObject_GetAttr(sched, s_stop_mode);
    if (stop_mode == NULL || !PyTuple_Check(stop_mode) ||
        PyTuple_GET_SIZE(stop_mode) != 2)
        goto ineligible;
    {
        PyObject *kind = PyTuple_GET_ITEM(stop_mode, 0);
        stop_g = PyTuple_GET_ITEM(stop_mode, 1);
        if (PyUnicode_CompareWithASCIIString(kind, "main") == 0)
            stop_main = 1;
        else if (PyUnicode_CompareWithASCIIString(kind, "panic") == 0)
            stop_main = 0;
        else
            goto ineligible;
        if (stop_main && stop_g == Py_None)
            goto ineligible;
    }

    {
        int err = 0;
        budget = attr_as_longlong(sched, s_budget, &err);
        budget_used = attr_as_longlong(sched, s_budget_used, &err);
        steps = attr_as_longlong(sched, s_steps, &err);
        if (err)
            goto fail_entry;
    }
    panicked = PyObject_GetAttr(sched, s_panicked_attr);
    if (panicked == NULL)
        goto fail_entry;
    clock = PyObject_GetAttr(sched, s_clock);
    if (clock == NULL)
        goto fail_entry;
    now_obj = PyObject_GetAttr(clock, s_now);
    if (now_obj == NULL)
        goto fail_entry;
    time_limit = PyObject_GetAttr(sched, s_time_limit);
    if (time_limit == NULL)
        goto fail_entry;
    if (time_limit != Py_None) {
        double now = PyFloat_AsDouble(now_obj);
        double lim = PyFloat_AsDouble(time_limit);
        if (PyErr_Occurred())
            goto fail_entry;
        time_exceeded = (now >= lim);
    }

    /* ---------------- the loop ---------------- */
    {
        int first = 1;
        for (;;) {
            /* Stop check — same order as the pure _advance. */
            int stop;
            if (stop_main) {
                PyObject *st = slot_get(stop_g, off_state);
                stop = (st != NULL && state_is_terminal(st)) ||
                       (panicked != Py_None);
            }
            else {
                stop = (panicked != Py_None);
            }
            if (stop) { verdict = v_stopped; break; }
            /* The virtual clock is frozen while goroutines run (timers only
             * fire from the idle path, the injector is disabled here), so
             * the time-limit comparison is loop-invariant. */
            if (first) {
                first = 0;
                if (time_exceeded) { verdict = v_timeout; break; }
            }
            if (budget_used >= budget) { verdict = v_steps; break; }
            Py_ssize_t nrun = PyList_GET_SIZE(runnable);
            if (nrun == 0) { verdict = v_idle; break; }
            budget_used++;
            steps++;
            uint32_t idx = mt_randrange32(rng, (uint32_t)nrun);
            PyObject *g = PyList_GET_ITEM(runnable, idx);
            Py_INCREF(g);

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
                runnable_remove(runnable, g);
                slot_set(g, off_ended_at, now_obj);
                if (st == st_panicked && panicked == Py_None) {
                    if (PyObject_SetAttr(sched, s_panicked_attr, g) < 0) {
                        Py_DECREF(g);
                        failed = 1;
                        break;
                    }
                    Py_INCREF(g);
                    Py_SETREF(panicked, g);
                }
            }
            /* BLOCKED: block() already dequeued it before yielding. */
            Py_DECREF(g);
        }
    }

    /* Write the loop-local counters back and clear _current (the pure
     * centralized loop leaves _current None between decisions too). */
    {
        PyObject *exc_type = NULL, *exc_val = NULL, *exc_tb = NULL;
        if (failed)
            PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
        PyObject *bu = PyLong_FromLongLong(budget_used);
        PyObject *stp = PyLong_FromLongLong(steps);
        int wb_failed = (bu == NULL || stp == NULL);
        if (!wb_failed) {
            if (PyObject_SetAttr(sched, s_budget_used, bu) < 0 ||
                PyObject_SetAttr(sched, s_steps, stp) < 0)
                wb_failed = 1;
        }
        if (!failed && !wb_failed &&
            PyObject_SetAttr(sched, s_current, Py_None) < 0)
            wb_failed = 1;
        Py_XDECREF(bu);
        Py_XDECREF(stp);
        if (failed)
            PyErr_Restore(exc_type, exc_val, exc_tb);
        else if (wb_failed)
            failed = 1;
    }

    Py_XDECREF(time_limit);
    Py_XDECREF(now_obj);
    Py_XDECREF(clock);
    Py_XDECREF(panicked);
    Py_XDECREF(stop_mode);
    Py_XDECREF(rng_obj);
    Py_XDECREF(runnable);
    if (failed)
        return NULL;
    Py_INCREF(verdict);
    return verdict;

ineligible:
    /* Static conditions for the compiled loop don't hold for this run:
     * tell Python to use the pure loop (None).  Clear any attribute error
     * raised while probing. */
    PyErr_Clear();
    Py_XDECREF(stop_mode);
    Py_XDECREF(rng_obj);
    Py_XDECREF(runnable);
    Py_RETURN_NONE;

fail_entry:
    Py_XDECREF(time_limit);
    Py_XDECREF(now_obj);
    Py_XDECREF(clock);
    Py_XDECREF(panicked);
    Py_XDECREF(stop_mode);
    Py_XDECREF(rng_obj);
    Py_XDECREF(runnable);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Channel / select / sync fast ops                                    */
/*                                                                     */
/* Compiled bodies for the blocking primitives themselves: channel     */
/* send/recv (buffered and rendezvous), try_send/try_recv, select      */
/* readiness + commit, Mutex and RWMutex.  Unlike drive(), these work  */
/* on every backend: each op re-checks engagement at entry — trace     */
/* inactive, no injector, a current goroutine — and returns            */
/* NotImplemented to defer to the pure path otherwise.  All bail-outs  */
/* happen BEFORE the op's entry schedule point so an op is either      */
/* entirely compiled or entirely pure; the observable schedule is      */
/* identical either way (asserted by the parity tests).                */
/* ------------------------------------------------------------------ */

static int fo_bound = 0;

static PyTypeObject *fo_chan = NULL, *fo_waiter = NULL, *fo_selctx = NULL,
                    *fo_sendcase = NULL, *fo_recvcase = NULL,
                    *fo_mutex = NULL, *fo_mu_ticket = NULL,
                    *fo_rwmutex = NULL, *fo_rw_ticket = NULL,
                    *fo_trace = NULL, *fo_goro = NULL;
static PyObject *fo_gopanic = NULL, *fo_killed = NULL;
static PyObject *dq_popleft_m = NULL, *dq_append_m = NULL, *dq_remove_m = NULL;
static PyObject *st_blocked = NULL;

/* Channel slots */
static Py_ssize_t off_ch_sched = -1, off_ch_capacity = -1, off_ch_buf = -1,
                  off_ch_sendw = -1, off_ch_recvw = -1, off_ch_closed = -1,
                  off_ch_sendseq = -1, off_ch_reason_send = -1,
                  off_ch_reason_recv = -1;
/* _Waiter slots */
static Py_ssize_t off_w_goroutine = -1, off_w_payload = -1, off_w_value = -1,
                  off_w_ok = -1, off_w_completed = -1, off_w_selctx = -1,
                  off_w_caseidx = -1;
/* _SelectContext slots */
static Py_ssize_t off_sc_winner = -1, off_sc_value = -1, off_sc_ok = -1;
/* SelectCase / SendCase slots */
static Py_ssize_t off_case_channel = -1, off_case_value = -1;
/* Mutex slots */
static Py_ssize_t off_mu_sched = -1, off_mu_locked = -1, off_mu_owner = -1,
                  off_mu_waiters = -1, off_mu_reason = -1;
static Py_ssize_t off_mtix_goroutine = -1, off_mtix_granted = -1;
/* RWMutex slots */
static Py_ssize_t off_rw_sched = -1, off_rw_wprio = -1, off_rw_readers = -1,
                  off_rw_writer = -1, off_rw_pw = -1, off_rw_pr = -1,
                  off_rw_reason_r = -1, off_rw_reason_w = -1;
static Py_ssize_t off_rwtix_goroutine = -1, off_rwtix_granted = -1;
/* Goroutine slots beyond bind()'s state/ended_at */
static Py_ssize_t off_g_gid = -1, off_g_blockreason = -1, off_g_external = -1,
                  off_g_pending = -1, off_g_killed = -1;
static Py_ssize_t off_tkg_hub = -1;
static Py_ssize_t off_trace_active = -1;

static PyObject *s_trace = NULL, *s_injector = NULL, *s_preempt = NULL,
                *s_yield = NULL, *r_select = NULL;
static PyObject *msg_send_closed = NULL, *msg_mu_unlock = NULL,
                *msg_rw_runlock = NULL, *msg_rw_unlock = NULL;
static PyObject *long_zero = NULL;

enum { OP_SEND, OP_RECV, OP_TRYSEND, OP_TRYRECV, OP_SELECT, OP_MUTEX,
       OP_RWMUTEX, OP_N };
static long long fo_hits[OP_N], fo_bails[OP_N];

#define FO_BAIL(op)                                                 \
    do {                                                            \
        fo_bails[op]++;                                             \
        Py_RETURN_NOTIMPLEMENTED;                                   \
    } while (0)

static void
fo_panic(PyObject *msg)
{
    PyErr_SetObject(fo_gopanic, msg);
}

static long long
fo_slot_ll(PyObject *obj, Py_ssize_t off, int *err)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset integer slot");
        *err = 1;
        return 0;
    }
    long long out = PyLong_AsLongLong(v);
    if (out == -1 && PyErr_Occurred())
        *err = 1;
    return out;
}

static int
fo_slot_set_ll(PyObject *obj, Py_ssize_t off, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    slot_set(obj, off, o);
    Py_DECREF(o);
    return 0;
}

/* deque access through the cached unbound methods: the queues stay real
 * collections.deque objects, so pure code (close(), the injector, tests)
 * interoperates with compiled ops freely. */

static PyObject *
fo_dq_popleft(PyObject *dq)
{
    PyObject *a[1] = {dq};
    return PyObject_Vectorcall(dq_popleft_m, a, 1, NULL);
}

static int
fo_dq_append(PyObject *dq, PyObject *item)
{
    PyObject *a[2] = {dq, item};
    PyObject *r = PyObject_Vectorcall(dq_append_m, a, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* deque.remove, swallowing ValueError — exactly Channel._discard's loop
 * body (removal compares by identity: _Waiter defines no __eq__). */
static int
fo_dq_discard(PyObject *dq, PyObject *item)
{
    PyObject *a[2] = {dq, item};
    PyObject *r = PyObject_Vectorcall(dq_remove_m, a, 2, NULL);
    if (r != NULL) {
        Py_DECREF(r);
        return 0;
    }
    if (PyErr_ExceptionMatches(PyExc_ValueError)) {
        PyErr_Clear();
        return 0;
    }
    return -1;
}

static int
fo_ch_discard(PyObject *ch, PyObject *w)
{
    PyObject *q = slot_get(ch, off_ch_sendw);
    if (q == NULL || fo_dq_discard(q, w) < 0)
        return -1;
    q = slot_get(ch, off_ch_recvw);
    if (q == NULL || fo_dq_discard(q, w) < 0)
        return -1;
    return 0;
}

/* yield_to_scheduler: a direct hub switch for tasklet goroutines (with
 * the killed / pending_error checks done here, exactly as the Python
 * method would), the generic method call for every other vehicle. */
static int
fo_yield(PyObject *g)
{
    if (Py_TYPE(g) == tk_go_type && switch_meth != NULL) {
        PyObject *hub = slot_get(g, off_tkg_hub);
        if (hub != NULL && hub != Py_None) {
            PyObject *sargs[1] = {hub};
            PyObject *r = PyObject_Vectorcall(switch_meth, sargs, 1, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            if (slot_get(g, off_g_killed) == Py_True) {
                PyErr_SetNone(fo_killed);
                return -1;
            }
            PyObject *pe = slot_get(g, off_g_pending);
            if (pe != NULL && pe != Py_None) {
                Py_INCREF(pe);
                slot_set(g, off_g_pending, Py_None);
                PyErr_SetObject(PyExceptionInstance_Class(pe), pe);
                Py_DECREF(pe);
                return -1;
            }
            return 0;
        }
    }
    PyObject *rargs[1] = {g};
    PyObject *r = PyObject_VectorcallMethod(s_yield, rargs, 1, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Scheduler.block(reason) with the trace-inactive emit skipped.  On a
 * raise out of the yield (Killed / injected error) block_reason stays
 * set, matching the pure method's control flow. */
static int
fo_block(PyObject *sched, PyObject *g, PyObject *reason)
{
    slot_set(g, off_state, st_blocked);
    slot_set(g, off_g_blockreason, reason);
    slot_set(g, off_g_external, Py_False);
    PyObject *runnable = PyObject_GetAttr(sched, s_runnable_attr);
    if (runnable == NULL)
        return -1;
    if (!PyList_CheckExact(runnable)) {
        Py_DECREF(runnable);
        PyErr_SetString(PyExc_TypeError, "scheduler _runnable is not a list");
        return -1;
    }
    runnable_remove(runnable, g);
    Py_DECREF(runnable);
    if (fo_yield(g) < 0)
        return -1;
    slot_set(g, off_g_blockreason, Py_None);
    slot_set(g, off_g_external, Py_False);
    return 0;
}

/* Scheduler.ready(g): BLOCKED -> RUNNABLE + requeue (emit skipped). */
static int
fo_ready(PyObject *sched, PyObject *g)
{
    if (!PyObject_TypeCheck(g, fo_goro)) {
        PyErr_SetString(PyExc_TypeError, "waiter goroutine is not a Goroutine");
        return -1;
    }
    PyObject *st = slot_get(g, off_state);
    if (st != st_blocked) {
        if (st == NULL)
            return 0;
        int eq = PyObject_RichCompareBool(st, st_blocked, Py_EQ);
        if (eq < 0)
            return -1;
        if (!eq)
            return 0;
    }
    slot_set(g, off_state, st_runnable);
    PyObject *runnable = PyObject_GetAttr(sched, s_runnable_attr);
    if (runnable == NULL)
        return -1;
    if (!PyList_CheckExact(runnable)) {
        Py_DECREF(runnable);
        PyErr_SetString(PyExc_TypeError, "scheduler _runnable is not a list");
        return -1;
    }
    int rc = PyList_Append(runnable, g);
    Py_DECREF(runnable);
    return rc;
}

/* Channel._pop_claimable, with the peek-then-pop collapsed into a single
 * popleft-first loop (every branch of the pure loop pops exactly once).
 * Returns a new reference, or NULL with *err set on failure / clear on
 * an empty queue. */
static PyObject *
fo_pop_claimable(PyObject *queue, int *err)
{
    for (;;) {
        Py_ssize_t sz = PyObject_Size(queue);
        if (sz < 0) {
            *err = 1;
            return NULL;
        }
        if (sz == 0)
            return NULL;
        PyObject *w = fo_dq_popleft(queue);
        if (w == NULL) {
            *err = 1;
            return NULL;
        }
        if (slot_get(w, off_w_completed) == Py_True) {
            Py_DECREF(w);
            continue;
        }
        PyObject *ctx = slot_get(w, off_w_selctx);
        if (ctx == NULL || ctx == Py_None)
            return w;
        PyObject *winner = slot_get(ctx, off_sc_winner);
        if (winner != NULL && winner != Py_None) {
            Py_DECREF(w);          /* lost select: discard */
            continue;
        }
        PyObject *idx = slot_get(w, off_w_caseidx);
        slot_set(ctx, off_sc_winner, idx ? idx : Py_None);
        return w;
    }
}

/* Channel._next_seq: the counter must advance even where the value is
 * only used by (skipped) emits — it is observable in later buffered
 * operations.  Returns the new seq as a new reference. */
static PyObject *
fo_next_seq(PyObject *ch)
{
    PyObject *cur = slot_get(ch, off_ch_sendseq);
    if (cur == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel _send_seq unset");
        return NULL;
    }
    long long n = PyLong_AsLongLong(cur);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    PyObject *nv = PyLong_FromLongLong(n + 1);
    if (nv == NULL)
        return NULL;
    slot_set(ch, off_ch_sendseq, nv);
    return nv;
}

/* Channel.poll_send: -1 error (incl. the closed-channel panic), 0 would
 * block, 1 completed. */
static int
fo_poll_send(PyObject *ch, PyObject *value)
{
    if (slot_get(ch, off_ch_closed) == Py_True) {
        fo_panic(msg_send_closed);
        return -1;
    }
    PyObject *recvw = slot_get(ch, off_ch_recvw);
    if (recvw == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel queues unset");
        return -1;
    }
    int err = 0;
    PyObject *w = fo_pop_claimable(recvw, &err);
    if (err)
        return -1;
    if (w != NULL) {
        PyObject *seq = fo_next_seq(ch);
        if (seq == NULL) {
            Py_DECREF(w);
            return -1;
        }
        Py_DECREF(seq);
        slot_set(w, off_w_value, value);
        slot_set(w, off_w_ok, Py_True);
        slot_set(w, off_w_completed, Py_True);
        PyObject *ctx = slot_get(w, off_w_selctx);
        if (ctx != NULL && ctx != Py_None) {
            slot_set(ctx, off_sc_value, value);
            slot_set(ctx, off_sc_ok, Py_True);
        }
        PyObject *sched = slot_get(ch, off_ch_sched);
        PyObject *g = slot_get(w, off_w_goroutine);
        int rc = -1;
        if (sched != NULL && g != NULL)
            rc = fo_ready(sched, g);
        else
            PyErr_SetString(PyExc_AttributeError, "waiter goroutine unset");
        Py_DECREF(w);
        return rc < 0 ? -1 : 1;
    }
    PyObject *buf = slot_get(ch, off_ch_buf);
    if (buf == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel buffer unset");
        return -1;
    }
    Py_ssize_t blen = PyObject_Size(buf);
    if (blen < 0)
        return -1;
    int cerr = 0;
    long long cap = fo_slot_ll(ch, off_ch_capacity, &cerr);
    if (cerr)
        return -1;
    if (blen < cap) {
        PyObject *seq = fo_next_seq(ch);
        if (seq == NULL)
            return -1;
        PyObject *tup = PyTuple_Pack(2, seq, value);
        Py_DECREF(seq);
        if (tup == NULL)
            return -1;
        int rc = fo_dq_append(buf, tup);
        Py_DECREF(tup);
        return rc < 0 ? -1 : 1;
    }
    return 0;
}

/* Channel.poll_recv: -1 error, 0 would block, 1 completed with
 * *value_out (new ref) and *ok_out. */
static int
fo_poll_recv(PyObject *ch, PyObject **value_out, int *ok_out)
{
    PyObject *buf = slot_get(ch, off_ch_buf);
    PyObject *sendw = slot_get(ch, off_ch_sendw);
    if (buf == NULL || sendw == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel queues unset");
        return -1;
    }
    Py_ssize_t blen = PyObject_Size(buf);
    if (blen < 0)
        return -1;
    if (blen > 0) {
        PyObject *item = fo_dq_popleft(buf);
        if (item == NULL)
            return -1;
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 2) {
            Py_DECREF(item);
            PyErr_SetString(PyExc_TypeError,
                            "channel buffer entry is not (seq, value)");
            return -1;
        }
        PyObject *value = PyTuple_GET_ITEM(item, 1);
        Py_INCREF(value);
        Py_DECREF(item);
        /* A sender blocked on the full buffer can now complete. */
        int err = 0;
        PyObject *w = fo_pop_claimable(sendw, &err);
        if (err) {
            Py_DECREF(value);
            return -1;
        }
        if (w != NULL) {
            PyObject *wseq = fo_next_seq(ch);
            if (wseq == NULL) {
                Py_DECREF(w);
                Py_DECREF(value);
                return -1;
            }
            PyObject *payload = slot_get(w, off_w_payload);
            if (payload == NULL)
                payload = Py_None;
            PyObject *tup = PyTuple_Pack(2, wseq, payload);
            Py_DECREF(wseq);
            if (tup == NULL || fo_dq_append(buf, tup) < 0) {
                Py_XDECREF(tup);
                Py_DECREF(w);
                Py_DECREF(value);
                return -1;
            }
            Py_DECREF(tup);
            slot_set(w, off_w_ok, Py_True);
            slot_set(w, off_w_completed, Py_True);
            PyObject *ctx = slot_get(w, off_w_selctx);
            if (ctx != NULL && ctx != Py_None) {
                slot_set(ctx, off_sc_value, Py_None);
                slot_set(ctx, off_sc_ok, Py_True);
            }
            PyObject *sched = slot_get(ch, off_ch_sched);
            PyObject *g = slot_get(w, off_w_goroutine);
            int rc = (sched != NULL && g != NULL) ? fo_ready(sched, g) : -1;
            Py_DECREF(w);
            if (rc < 0) {
                Py_DECREF(value);
                return -1;
            }
        }
        *value_out = value;
        *ok_out = 1;
        return 1;
    }
    int err = 0;
    PyObject *w = fo_pop_claimable(sendw, &err);
    if (err)
        return -1;
    if (w != NULL) {
        /* Rendezvous with a blocked sender (unbuffered channel). */
        PyObject *seq = fo_next_seq(ch);
        if (seq == NULL) {
            Py_DECREF(w);
            return -1;
        }
        Py_DECREF(seq);
        slot_set(w, off_w_ok, Py_True);
        slot_set(w, off_w_completed, Py_True);
        PyObject *ctx = slot_get(w, off_w_selctx);
        if (ctx != NULL && ctx != Py_None) {
            slot_set(ctx, off_sc_value, Py_None);
            slot_set(ctx, off_sc_ok, Py_True);
        }
        PyObject *payload = slot_get(w, off_w_payload);
        PyObject *value = payload ? payload : Py_None;
        Py_INCREF(value);
        PyObject *sched = slot_get(ch, off_ch_sched);
        PyObject *g = slot_get(w, off_w_goroutine);
        int rc = (sched != NULL && g != NULL) ? fo_ready(sched, g) : -1;
        Py_DECREF(w);
        if (rc < 0) {
            Py_DECREF(value);
            return -1;
        }
        *value_out = value;
        *ok_out = 1;
        return 1;
    }
    if (slot_get(ch, off_ch_closed) == Py_True) {
        Py_INCREF(Py_None);
        *value_out = Py_None;
        *ok_out = 0;
        return 1;
    }
    return 0;
}

/* any(not w.dead for w in queue) — iteration only, no mutation. */
static int
fo_any_live(PyObject *queue)
{
    PyObject *it = PyObject_GetIter(queue);
    if (it == NULL)
        return -1;
    PyObject *w;
    int live = 0;
    while (!live && (w = PyIter_Next(it)) != NULL) {
        if (slot_get(w, off_w_completed) != Py_True) {
            PyObject *ctx = slot_get(w, off_w_selctx);
            if (ctx == NULL || ctx == Py_None) {
                live = 1;
            }
            else {
                PyObject *winner = slot_get(ctx, off_sc_winner);
                if (winner == NULL || winner == Py_None)
                    live = 1;
            }
        }
        Py_DECREF(w);
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    return live;
}

static int
fo_can_send_now(PyObject *ch)
{
    if (slot_get(ch, off_ch_closed) == Py_True)
        return 1;                   /* "ready": completing panics */
    PyObject *recvw = slot_get(ch, off_ch_recvw);
    if (recvw == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel queues unset");
        return -1;
    }
    int live = fo_any_live(recvw);
    if (live != 0)
        return live;
    PyObject *buf = slot_get(ch, off_ch_buf);
    Py_ssize_t blen = buf ? PyObject_Size(buf) : -1;
    if (blen < 0)
        return -1;
    int err = 0;
    long long cap = fo_slot_ll(ch, off_ch_capacity, &err);
    if (err)
        return -1;
    return blen < cap;
}

static int
fo_can_recv_now(PyObject *ch)
{
    PyObject *buf = slot_get(ch, off_ch_buf);
    if (buf == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel buffer unset");
        return -1;
    }
    Py_ssize_t blen = PyObject_Size(buf);
    if (blen < 0)
        return -1;
    if (blen > 0)
        return 1;
    PyObject *sendw = slot_get(ch, off_ch_sendw);
    if (sendw == NULL) {
        PyErr_SetString(PyExc_AttributeError, "channel queues unset");
        return -1;
    }
    int live = fo_any_live(sendw);
    if (live != 0)
        return live;
    return slot_get(ch, off_ch_closed) == Py_True;
}

static PyObject *
fo_pair(PyObject *a, PyObject *b)
{
    PyObject *t = PyTuple_New(2);
    if (t == NULL)
        return NULL;
    Py_INCREF(a);
    PyTuple_SET_ITEM(t, 0, a);
    Py_INCREF(b);
    PyTuple_SET_ITEM(t, 1, b);
    return t;
}

static PyObject *
fo_triple(PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *t = PyTuple_New(3);
    if (t == NULL)
        return NULL;
    Py_INCREF(a);
    PyTuple_SET_ITEM(t, 0, a);
    Py_INCREF(b);
    PyTuple_SET_ITEM(t, 1, b);
    Py_INCREF(c);
    PyTuple_SET_ITEM(t, 2, c);
    return t;
}

/* Per-op engagement check + the entry schedule point.
 * 1 -> engaged (*me_out is a new ref to the current goroutine),
 * 0 -> bail to the pure path (no observable action taken),
 * -1 -> error raised (only possible once the op is committed: every
 *       bail-out condition is evaluated before the entry yield). */
static int
fo_enter(PyObject *sched, PyObject **me_out)
{
    PyObject *trace = PyObject_GetAttr(sched, s_trace);
    if (trace == NULL) {
        PyErr_Clear();
        return 0;
    }
    int traced = (Py_TYPE(trace) != fo_trace ||
                  slot_get(trace, off_trace_active) != Py_False);
    Py_DECREF(trace);
    if (traced)
        return 0;
    PyObject *inj = PyObject_GetAttr(sched, s_injector);
    if (inj == NULL) {
        PyErr_Clear();
        return 0;
    }
    int has_inj = (inj != Py_None);
    Py_DECREF(inj);
    if (has_inj)
        return 0;
    PyObject *me = PyObject_GetAttr(sched, s_current);
    if (me == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (me == Py_None || !PyObject_TypeCheck(me, fo_goro)) {
        Py_DECREF(me);
        return 0;
    }
    PyObject *preempt = PyObject_GetAttr(sched, s_preempt);
    if (preempt == NULL) {
        PyErr_Clear();
        Py_DECREF(me);
        return 0;
    }
    int do_yield = PyObject_IsTrue(preempt);
    Py_DECREF(preempt);
    if (do_yield < 0) {
        Py_DECREF(me);
        return -1;
    }
    if (do_yield && fo_yield(me) < 0) {
        Py_DECREF(me);
        return -1;
    }
    *me_out = me;
    return 1;
}

/* ---- channel ops ---- */

static PyObject *
fo_chan_send(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!fo_bound || nargs != 2)
        FO_BAIL(OP_SEND);
    PyObject *ch = args[0], *value = args[1];
    if (Py_TYPE(ch) != fo_chan)
        FO_BAIL(OP_SEND);
    PyObject *sched = slot_get(ch, off_ch_sched);
    if (sched == NULL)
        FO_BAIL(OP_SEND);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_SEND);
    }
    fo_hits[OP_SEND]++;
    PyObject *reason = slot_get(ch, off_ch_reason_send);
    if (reason == NULL)
        reason = Py_None;
    Py_INCREF(reason);
    PyObject *result = NULL;
    for (;;) {
        int r = fo_poll_send(ch, value);
        if (r < 0)
            break;
        if (r == 1) {
            Py_INCREF(Py_None);
            result = Py_None;
            break;
        }
        PyObject *w = PyObject_CallFunctionObjArgs((PyObject *)fo_waiter,
                                                   me, Py_True, value, NULL);
        if (w == NULL)
            break;
        PyObject *sendw = slot_get(ch, off_ch_sendw);
        if (sendw == NULL || fo_dq_append(sendw, w) < 0) {
            if (sendw == NULL)
                PyErr_SetString(PyExc_AttributeError, "channel queues unset");
            Py_DECREF(w);
            break;
        }
        if (fo_block(sched, me, reason) < 0) {
            Py_DECREF(w);           /* stays queued, matching pure */
            break;
        }
        if (slot_get(w, off_w_completed) == Py_True) {
            int closed = (slot_get(w, off_w_ok) == Py_False);
            Py_DECREF(w);
            if (closed) {
                fo_panic(msg_send_closed);
                break;
            }
            Py_INCREF(Py_None);
            result = Py_None;
            break;
        }
        if (fo_ch_discard(ch, w) < 0) {
            Py_DECREF(w);
            break;
        }
        Py_DECREF(w);               /* spurious wakeup: retry */
    }
    Py_DECREF(reason);
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_chan_recv(PyObject *module, PyObject *ch)
{
    if (!fo_bound || Py_TYPE(ch) != fo_chan)
        FO_BAIL(OP_RECV);
    PyObject *sched = slot_get(ch, off_ch_sched);
    if (sched == NULL)
        FO_BAIL(OP_RECV);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_RECV);
    }
    fo_hits[OP_RECV]++;
    PyObject *reason = slot_get(ch, off_ch_reason_recv);
    if (reason == NULL)
        reason = Py_None;
    Py_INCREF(reason);
    PyObject *result = NULL;
    for (;;) {
        PyObject *value = NULL;
        int ok = 0;
        int r = fo_poll_recv(ch, &value, &ok);
        if (r < 0)
            break;
        if (r == 1) {
            result = fo_pair(value, ok ? Py_True : Py_False);
            Py_DECREF(value);
            break;
        }
        PyObject *w = PyObject_CallFunctionObjArgs((PyObject *)fo_waiter,
                                                   me, Py_False, NULL);
        if (w == NULL)
            break;
        PyObject *recvw = slot_get(ch, off_ch_recvw);
        if (recvw == NULL || fo_dq_append(recvw, w) < 0) {
            if (recvw == NULL)
                PyErr_SetString(PyExc_AttributeError, "channel queues unset");
            Py_DECREF(w);
            break;
        }
        if (fo_block(sched, me, reason) < 0) {
            Py_DECREF(w);
            break;
        }
        if (slot_get(w, off_w_completed) == Py_True) {
            PyObject *wval = slot_get(w, off_w_value);
            if (wval == NULL)
                wval = Py_None;
            PyObject *wok = slot_get(w, off_w_ok);
            result = fo_pair(wval, wok == Py_True ? Py_True : Py_False);
            Py_DECREF(w);
            break;
        }
        if (fo_ch_discard(ch, w) < 0) {
            Py_DECREF(w);
            break;
        }
        Py_DECREF(w);
    }
    Py_DECREF(reason);
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_chan_try_send(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!fo_bound || nargs != 2)
        FO_BAIL(OP_TRYSEND);
    PyObject *ch = args[0], *value = args[1];
    if (Py_TYPE(ch) != fo_chan)
        FO_BAIL(OP_TRYSEND);
    PyObject *sched = slot_get(ch, off_ch_sched);
    if (sched == NULL)
        FO_BAIL(OP_TRYSEND);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_TRYSEND);
    }
    fo_hits[OP_TRYSEND]++;
    int r = fo_poll_send(ch, value);
    Py_DECREF(me);
    Py_DECREF(sched);
    if (r < 0)
        return NULL;
    return PyBool_FromLong(r);
}

static PyObject *
fo_chan_try_recv(PyObject *module, PyObject *ch)
{
    if (!fo_bound || Py_TYPE(ch) != fo_chan)
        FO_BAIL(OP_TRYRECV);
    PyObject *sched = slot_get(ch, off_ch_sched);
    if (sched == NULL)
        FO_BAIL(OP_TRYRECV);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_TRYRECV);
    }
    fo_hits[OP_TRYRECV]++;
    PyObject *value = NULL;
    int ok = 0;
    int r = fo_poll_recv(ch, &value, &ok);
    Py_DECREF(me);
    Py_DECREF(sched);
    if (r < 0)
        return NULL;
    if (r == 0)
        return fo_triple(Py_None, Py_False, Py_False);
    PyObject *result = fo_triple(value, ok ? Py_True : Py_False, Py_True);
    Py_DECREF(value);
    return result;
}

/* ---- select ---- */

static PyObject *
fo_select(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!fo_bound || nargs != 3)
        FO_BAIL(OP_SELECT);
    PyObject *sched = args[0], *cases = args[1], *defarg = args[2];
    if (!PyTuple_CheckExact(cases))
        FO_BAIL(OP_SELECT);
    Py_ssize_t n = PyTuple_GET_SIZE(cases);
    if (n == 0 || n > 64)
        FO_BAIL(OP_SELECT);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *c = PyTuple_GET_ITEM(cases, i);
        PyTypeObject *t = Py_TYPE(c);
        if (t != fo_sendcase && t != fo_recvcase)
            FO_BAIL(OP_SELECT);
        PyObject *ch = slot_get(c, off_case_channel);
        if (ch == NULL || Py_TYPE(ch) != fo_chan)
            FO_BAIL(OP_SELECT);     /* nil channels go the pure route */
    }
    PyObject *rng_obj = PyObject_GetAttr(sched, s_rng);
    if (rng_obj == NULL) {
        PyErr_Clear();
        FO_BAIL(OP_SELECT);
    }
    if (Py_TYPE(rng_obj) != &BatchedRandom_Type) {
        Py_DECREF(rng_obj);
        FO_BAIL(OP_SELECT);
    }
    int use_default = PyObject_IsTrue(defarg);
    if (use_default < 0) {
        Py_DECREF(rng_obj);
        return NULL;
    }
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(rng_obj);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_SELECT);
    }
    fo_hits[OP_SELECT]++;
    BatchedRandomObject *rng = (BatchedRandomObject *)rng_obj;
    PyObject *result = NULL;

    for (;;) {
        int ready_idx[64];
        int n_ready = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *c = PyTuple_GET_ITEM(cases, i);
            PyObject *ch = slot_get(c, off_case_channel);
            int rdy = (Py_TYPE(c) == fo_sendcase)
                          ? fo_can_send_now(ch)
                          : fo_can_recv_now(ch);
            if (rdy < 0)
                goto out;
            if (rdy)
                ready_idx[n_ready++] = (int)i;
        }
        if (n_ready > 0) {
            /* One draw even for a single ready case: randrange(1) consumes
             * an MT word, and the stream is shared with the scheduler. */
            uint32_t k = mt_randrange32(rng, (uint32_t)n_ready);
            Py_ssize_t index = ready_idx[k];
            PyObject *c = PyTuple_GET_ITEM(cases, index);
            PyObject *ch = slot_get(c, off_case_channel);
            PyObject *idxobj = PyLong_FromSsize_t(index);
            if (idxobj == NULL)
                goto out;
            if (Py_TYPE(c) == fo_sendcase) {
                PyObject *sval = slot_get(c, off_case_value);
                if (sval == NULL)
                    sval = Py_None;
                int r = fo_poll_send(ch, sval);
                if (r == 0)
                    PyErr_SetString(PyExc_AssertionError,
                                    "select chose a send case that was "
                                    "not ready");
                if (r != 1) {
                    Py_DECREF(idxobj);
                    goto out;
                }
                result = fo_triple(idxobj, Py_None, Py_True);
            }
            else {
                PyObject *val = NULL;
                int ok = 0;
                int r = fo_poll_recv(ch, &val, &ok);
                if (r == 0)
                    PyErr_SetString(PyExc_AssertionError,
                                    "select chose a recv case that was "
                                    "not ready");
                if (r != 1) {
                    Py_DECREF(idxobj);
                    goto out;
                }
                result = fo_triple(idxobj, val, ok ? Py_True : Py_False);
                Py_DECREF(val);
            }
            Py_DECREF(idxobj);
            goto out;
        }
        if (use_default) {
            PyObject *neg = PyLong_FromLong(-1);
            if (neg == NULL)
                goto out;
            result = fo_triple(neg, Py_None, Py_False);
            Py_DECREF(neg);
            goto out;
        }
        /* Park one waiter per case, sharing a fresh context. */
        PyObject *ctx = PyObject_CallFunctionObjArgs((PyObject *)fo_selctx,
                                                     me, NULL);
        if (ctx == NULL)
            goto out;
        PyObject *waiters[64];
        int nw = 0;
        int failed = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *c = PyTuple_GET_ITEM(cases, i);
            PyObject *ch = slot_get(c, off_case_channel);
            int is_send = (Py_TYPE(c) == fo_sendcase);
            PyObject *payload = is_send ? slot_get(c, off_case_value)
                                        : Py_None;
            if (payload == NULL)
                payload = Py_None;
            PyObject *idxobj = PyLong_FromSsize_t(i);
            if (idxobj == NULL) {
                failed = 1;
                break;
            }
            PyObject *w = PyObject_CallFunctionObjArgs(
                (PyObject *)fo_waiter, me, is_send ? Py_True : Py_False,
                payload, ctx, idxobj, NULL);
            Py_DECREF(idxobj);
            if (w == NULL) {
                failed = 1;
                break;
            }
            PyObject *q = slot_get(ch, is_send ? off_ch_sendw : off_ch_recvw);
            if (q == NULL || fo_dq_append(q, w) < 0) {
                if (q == NULL)
                    PyErr_SetString(PyExc_AttributeError,
                                    "channel queues unset");
                Py_DECREF(w);
                failed = 1;
                break;
            }
            waiters[nw++] = w;
        }
        if (!failed && fo_block(sched, me, r_select) < 0)
            failed = 1;             /* waiters stay queued, matching pure */
        if (failed) {
            for (int j = 0; j < nw; j++)
                Py_DECREF(waiters[j]);
            Py_DECREF(ctx);
            goto out;
        }
        for (int j = 0; j < nw; j++) {
            PyObject *w = waiters[j];
            if (!failed && slot_get(w, off_w_completed) != Py_True) {
                PyObject *c = PyTuple_GET_ITEM(cases, (Py_ssize_t)j);
                PyObject *ch = slot_get(c, off_case_channel);
                if (ch == NULL || fo_ch_discard(ch, w) < 0)
                    failed = 1;
            }
            Py_DECREF(w);
        }
        if (failed) {
            Py_DECREF(ctx);
            goto out;
        }
        PyObject *winner = slot_get(ctx, off_sc_winner);
        if (winner != NULL && winner != Py_None) {
            Py_ssize_t widx = PyLong_AsSsize_t(winner);
            if (widx < 0 || widx >= n) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_IndexError,
                                    "select winner index out of range");
                Py_DECREF(ctx);
                goto out;
            }
            PyObject *c = PyTuple_GET_ITEM(cases, widx);
            PyObject *ok = slot_get(ctx, off_sc_ok);
            if (ok == NULL)
                ok = Py_False;
            if (Py_TYPE(c) == fo_sendcase && ok != Py_True) {
                fo_panic(msg_send_closed);
                Py_DECREF(ctx);
                goto out;
            }
            PyObject *val = slot_get(ctx, off_sc_value);
            if (val == NULL)
                val = Py_None;
            result = fo_triple(winner, val, ok);
            Py_DECREF(ctx);
            goto out;
        }
        Py_DECREF(ctx);             /* spurious wakeup: retry */
    }
out:
    Py_DECREF(me);
    Py_DECREF(rng_obj);
    return result;
}

/* ---- mutex ---- */

static PyObject *
fo_mutex_lock(PyObject *module, PyObject *mu)
{
    if (!fo_bound || Py_TYPE(mu) != fo_mutex)
        FO_BAIL(OP_MUTEX);
    PyObject *sched = slot_get(mu, off_mu_sched);
    if (sched == NULL)
        FO_BAIL(OP_MUTEX);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_MUTEX);
    }
    fo_hits[OP_MUTEX]++;
    PyObject *result = NULL;
    if (slot_get(mu, off_mu_locked) != Py_True) {
        slot_set(mu, off_mu_locked, Py_True);
        PyObject *gid = slot_get(me, off_g_gid);
        slot_set(mu, off_mu_owner, gid ? gid : Py_None);
        Py_INCREF(Py_None);
        result = Py_None;
    }
    else {
        PyObject *ticket = PyObject_CallFunctionObjArgs(
            (PyObject *)fo_mu_ticket, me, NULL);
        PyObject *q = ticket ? slot_get(mu, off_mu_waiters) : NULL;
        if (ticket != NULL &&
            (q != NULL && fo_dq_append(q, ticket) == 0)) {
            PyObject *reason = slot_get(mu, off_mu_reason);
            if (reason == NULL)
                reason = Py_None;
            Py_INCREF(reason);
            int failed = 0;
            while (slot_get(ticket, off_mtix_granted) != Py_True) {
                if (fo_block(sched, me, reason) < 0) {
                    failed = 1;
                    break;
                }
            }
            Py_DECREF(reason);
            if (!failed) {
                Py_INCREF(Py_None);
                result = Py_None;
            }
        }
        else if (ticket != NULL && q == NULL) {
            PyErr_SetString(PyExc_AttributeError, "mutex waiters unset");
        }
        Py_XDECREF(ticket);
    }
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_mutex_trylock(PyObject *module, PyObject *mu)
{
    if (!fo_bound || Py_TYPE(mu) != fo_mutex)
        FO_BAIL(OP_MUTEX);
    PyObject *sched = slot_get(mu, off_mu_sched);
    if (sched == NULL)
        FO_BAIL(OP_MUTEX);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_MUTEX);
    }
    fo_hits[OP_MUTEX]++;
    PyObject *result;
    if (slot_get(mu, off_mu_locked) == Py_True) {
        result = Py_False;
    }
    else {
        slot_set(mu, off_mu_locked, Py_True);
        PyObject *gid = slot_get(me, off_g_gid);
        slot_set(mu, off_mu_owner, gid ? gid : Py_None);
        result = Py_True;
    }
    Py_INCREF(result);
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_mutex_unlock(PyObject *module, PyObject *mu)
{
    if (!fo_bound || Py_TYPE(mu) != fo_mutex)
        FO_BAIL(OP_MUTEX);
    PyObject *sched = slot_get(mu, off_mu_sched);
    if (sched == NULL)
        FO_BAIL(OP_MUTEX);
    Py_INCREF(sched);
    PyObject *me = NULL;
    int e = fo_enter(sched, &me);
    if (e <= 0) {
        Py_DECREF(sched);
        if (e < 0)
            return NULL;
        FO_BAIL(OP_MUTEX);
    }
    fo_hits[OP_MUTEX]++;
    PyObject *result = NULL;
    if (slot_get(mu, off_mu_locked) != Py_True) {
        fo_panic(msg_mu_unlock);
        goto out;
    }
    {
        PyObject *q = slot_get(mu, off_mu_waiters);
        if (q == NULL) {
            PyErr_SetString(PyExc_AttributeError, "mutex waiters unset");
            goto out;
        }
        Py_ssize_t sz = PyObject_Size(q);
        if (sz < 0)
            goto out;
        if (sz > 0) {
            /* Direct handoff: stays locked, ownership moves to the head. */
            PyObject *ticket = fo_dq_popleft(q);
            if (ticket == NULL)
                goto out;
            slot_set(ticket, off_mtix_granted, Py_True);
            PyObject *g = slot_get(ticket, off_mtix_goroutine);
            if (g == NULL || !PyObject_TypeCheck(g, fo_goro)) {
                PyErr_SetString(PyExc_TypeError, "mutex ticket goroutine");
                Py_DECREF(ticket);
                goto out;
            }
            PyObject *gid = slot_get(g, off_g_gid);
            slot_set(mu, off_mu_owner, gid ? gid : Py_None);
            int rc = fo_ready(sched, g);
            Py_DECREF(ticket);
            if (rc < 0)
                goto out;
        }
        else {
            slot_set(mu, off_mu_locked, Py_False);
            slot_set(mu, off_mu_owner, Py_None);
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;
out:
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

/* ---- rwmutex ---- */

static int
fo_rw_grant_all(PyObject *rw, PyObject *sched)
{
    PyObject *pr = slot_get(rw, off_rw_pr);
    if (pr == NULL) {
        PyErr_SetString(PyExc_AttributeError, "rwmutex queues unset");
        return -1;
    }
    for (;;) {
        Py_ssize_t sz = PyObject_Size(pr);
        if (sz < 0)
            return -1;
        if (sz == 0)
            return 0;
        PyObject *t = fo_dq_popleft(pr);
        if (t == NULL)
            return -1;
        int err = 0;
        long long readers = fo_slot_ll(rw, off_rw_readers, &err);
        if (err || fo_slot_set_ll(rw, off_rw_readers, readers + 1) < 0) {
            Py_DECREF(t);
            return -1;
        }
        slot_set(t, off_rwtix_granted, Py_True);
        PyObject *g = slot_get(t, off_rwtix_goroutine);
        int rc = (g != NULL) ? fo_ready(sched, g) : -1;
        if (g == NULL)
            PyErr_SetString(PyExc_AttributeError, "ticket goroutine unset");
        Py_DECREF(t);
        if (rc < 0)
            return -1;
    }
}

static int
fo_rw_promote(PyObject *rw, PyObject *sched, int prefer_readers)
{
    if (slot_get(rw, off_rw_writer) == Py_True)
        return 0;
    PyObject *pr = slot_get(rw, off_rw_pr);
    PyObject *pw = slot_get(rw, off_rw_pw);
    if (pr == NULL || pw == NULL) {
        PyErr_SetString(PyExc_AttributeError, "rwmutex queues unset");
        return -1;
    }
    Py_ssize_t npr = PyObject_Size(pr);
    if (npr < 0)
        return -1;
    Py_ssize_t npw = PyObject_Size(pw);
    if (npw < 0)
        return -1;
    if (prefer_readers && npr > 0)
        return fo_rw_grant_all(rw, sched);
    int err = 0;
    long long readers = fo_slot_ll(rw, off_rw_readers, &err);
    if (err)
        return -1;
    if (readers == 0 && npw > 0) {
        PyObject *t = fo_dq_popleft(pw);
        if (t == NULL)
            return -1;
        slot_set(rw, off_rw_writer, Py_True);
        slot_set(t, off_rwtix_granted, Py_True);
        PyObject *g = slot_get(t, off_rwtix_goroutine);
        int rc = (g != NULL) ? fo_ready(sched, g) : -1;
        if (g == NULL)
            PyErr_SetString(PyExc_AttributeError, "ticket goroutine unset");
        Py_DECREF(t);
        return rc;
    }
    if (npr > 0) {
        PyObject *wp = slot_get(rw, off_rw_wprio);
        int prio = wp ? PyObject_IsTrue(wp) : 0;
        if (prio < 0)
            return -1;
        if (!(prio && npw > 0))
            return fo_rw_grant_all(rw, sched);
    }
    return 0;
}

/* Shared ticket-wait loop for the slow paths of rlock and lock. */
static int
fo_rw_wait(PyObject *rw, PyObject *sched, PyObject *me,
           Py_ssize_t off_queue, Py_ssize_t off_reason)
{
    PyObject *q = slot_get(rw, off_queue);
    if (q == NULL) {
        PyErr_SetString(PyExc_AttributeError, "rwmutex queues unset");
        return -1;
    }
    PyObject *ticket = PyObject_CallFunctionObjArgs(
        (PyObject *)fo_rw_ticket, me, NULL);
    if (ticket == NULL)
        return -1;
    if (fo_dq_append(q, ticket) < 0) {
        Py_DECREF(ticket);
        return -1;
    }
    PyObject *reason = slot_get(rw, off_reason);
    if (reason == NULL)
        reason = Py_None;
    Py_INCREF(reason);
    int rc = 0;
    while (slot_get(ticket, off_rwtix_granted) != Py_True) {
        if (fo_block(sched, me, reason) < 0) {
            rc = -1;
            break;
        }
    }
    Py_DECREF(reason);
    Py_DECREF(ticket);
    return rc;
}

/* One engagement prologue shared by the four RWMutex entry points. */
#define FO_RW_ENTER(rw, sched, me)                                  \
    if (!fo_bound || Py_TYPE(rw) != fo_rwmutex)                     \
        FO_BAIL(OP_RWMUTEX);                                        \
    sched = slot_get(rw, off_rw_sched);                             \
    if (sched == NULL)                                              \
        FO_BAIL(OP_RWMUTEX);                                        \
    Py_INCREF(sched);                                               \
    me = NULL;                                                      \
    do {                                                            \
        int _e = fo_enter(sched, &me);                              \
        if (_e <= 0) {                                              \
            Py_DECREF(sched);                                       \
            if (_e < 0)                                             \
                return NULL;                                        \
            FO_BAIL(OP_RWMUTEX);                                    \
        }                                                           \
    } while (0);                                                    \
    fo_hits[OP_RWMUTEX]++

static PyObject *
fo_rw_rlock(PyObject *module, PyObject *rw)
{
    PyObject *sched, *me;
    FO_RW_ENTER(rw, sched, me);
    PyObject *result = NULL;
    int can = (slot_get(rw, off_rw_writer) != Py_True);
    if (can) {
        PyObject *wp = slot_get(rw, off_rw_wprio);
        int prio = wp ? PyObject_IsTrue(wp) : 0;
        if (prio < 0)
            goto out;
        if (prio) {
            PyObject *pw = slot_get(rw, off_rw_pw);
            Py_ssize_t npw = pw ? PyObject_Size(pw) : -1;
            if (npw < 0)
                goto out;
            if (npw > 0)
                can = 0;
        }
    }
    if (can) {
        int err = 0;
        long long readers = fo_slot_ll(rw, off_rw_readers, &err);
        if (err || fo_slot_set_ll(rw, off_rw_readers, readers + 1) < 0)
            goto out;
    }
    else if (fo_rw_wait(rw, sched, me, off_rw_pr, off_rw_reason_r) < 0) {
        goto out;
    }
    Py_INCREF(Py_None);
    result = Py_None;
out:
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_rw_runlock(PyObject *module, PyObject *rw)
{
    PyObject *sched, *me;
    FO_RW_ENTER(rw, sched, me);
    PyObject *result = NULL;
    int err = 0;
    long long readers = fo_slot_ll(rw, off_rw_readers, &err);
    if (err)
        goto out;
    if (readers <= 0) {
        fo_panic(msg_rw_runlock);
        goto out;
    }
    if (fo_slot_set_ll(rw, off_rw_readers, readers - 1) < 0)
        goto out;
    if (readers - 1 == 0 && fo_rw_promote(rw, sched, 0) < 0)
        goto out;
    Py_INCREF(Py_None);
    result = Py_None;
out:
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_rw_lock(PyObject *module, PyObject *rw)
{
    PyObject *sched, *me;
    FO_RW_ENTER(rw, sched, me);
    PyObject *result = NULL;
    int err = 0;
    long long readers = fo_slot_ll(rw, off_rw_readers, &err);
    if (err)
        goto out;
    if (slot_get(rw, off_rw_writer) != Py_True && readers == 0) {
        slot_set(rw, off_rw_writer, Py_True);
    }
    else if (fo_rw_wait(rw, sched, me, off_rw_pw, off_rw_reason_w) < 0) {
        goto out;
    }
    Py_INCREF(Py_None);
    result = Py_None;
out:
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

static PyObject *
fo_rw_unlock(PyObject *module, PyObject *rw)
{
    PyObject *sched, *me;
    FO_RW_ENTER(rw, sched, me);
    PyObject *result = NULL;
    if (slot_get(rw, off_rw_writer) != Py_True) {
        fo_panic(msg_rw_unlock);
        goto out;
    }
    slot_set(rw, off_rw_writer, Py_False);
    if (fo_rw_promote(rw, sched, 1) < 0)
        goto out;
    Py_INCREF(Py_None);
    result = Py_None;
out:
    Py_DECREF(me);
    Py_DECREF(sched);
    return result;
}

/* ---- vector-clock kernels ---- */

static PyObject *
hl_vc_join(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 || !PyList_CheckExact(args[0]) ||
        !PyList_CheckExact(args[1])) {
        PyErr_SetString(PyExc_TypeError, "vc_join expects two lists");
        return NULL;
    }
    PyObject *v = args[0], *o = args[1];
    Py_ssize_t nv = PyList_GET_SIZE(v), no = PyList_GET_SIZE(o);
    for (Py_ssize_t i = 0; i < no; i++) {
        PyObject *oi = PyList_GET_ITEM(o, i);
        if (i < nv) {
            PyObject *vi = PyList_GET_ITEM(v, i);
            int gt = PyObject_RichCompareBool(oi, vi, Py_GT);
            if (gt < 0)
                return NULL;
            if (gt) {
                Py_INCREF(oi);
                PyList_SetItem(v, i, oi);
            }
        }
        else {
            /* The pure join extends with zeros then maxes. */
            int gt = PyObject_RichCompareBool(oi, long_zero, Py_GT);
            if (gt < 0)
                return NULL;
            if (PyList_Append(v, gt ? oi : long_zero) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
hl_vc_le(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 || !PyList_CheckExact(args[0]) ||
        !PyList_CheckExact(args[1])) {
        PyErr_SetString(PyExc_TypeError, "vc_le expects two lists");
        return NULL;
    }
    PyObject *v = args[0], *o = args[1];
    Py_ssize_t nv = PyList_GET_SIZE(v), no = PyList_GET_SIZE(o);
    for (Py_ssize_t i = 0; i < nv; i++) {
        PyObject *vi = PyList_GET_ITEM(v, i);
        PyObject *oi = (i < no) ? PyList_GET_ITEM(o, i) : long_zero;
        int gt = PyObject_RichCompareBool(vi, oi, Py_GT);
        if (gt < 0)
            return NULL;
        if (gt)
            Py_RETURN_FALSE;
    }
    Py_RETURN_TRUE;
}

/* ---- stats + bind ---- */

static PyObject *
hl_fastops_stats(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *names[OP_N] = {
        "send", "recv", "try_send", "try_recv", "select", "mutex", "rwmutex",
    };
    int reset = 0;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "fastops_stats([reset])");
        return NULL;
    }
    if (nargs == 1) {
        reset = PyObject_IsTrue(args[0]);
        if (reset < 0)
            return NULL;
    }
    PyObject *engaged = PyDict_New();
    PyObject *bailed = PyDict_New();
    PyObject *result = NULL;
    if (engaged == NULL || bailed == NULL)
        goto done;
    for (int i = 0; i < OP_N; i++) {
        PyObject *h = PyLong_FromLongLong(fo_hits[i]);
        if (h == NULL || PyDict_SetItemString(engaged, names[i], h) < 0) {
            Py_XDECREF(h);
            goto done;
        }
        Py_DECREF(h);
        PyObject *b = PyLong_FromLongLong(fo_bails[i]);
        if (b == NULL || PyDict_SetItemString(bailed, names[i], b) < 0) {
            Py_XDECREF(b);
            goto done;
        }
        Py_DECREF(b);
    }
    result = Py_BuildValue("{sOsO}", "engaged", engaged, "bailed", bailed);
    if (result != NULL && reset) {
        memset(fo_hits, 0, sizeof(fo_hits));
        memset(fo_bails, 0, sizeof(fo_bails));
    }
done:
    Py_XDECREF(engaged);
    Py_XDECREF(bailed);
    return result;
}

static PyObject *
hl_bind_fastops(PyObject *module, PyObject *args)
{
    PyObject *chan_cls, *waiter_cls, *selctx_cls, *sendcase_cls,
             *recvcase_cls, *mutex_cls, *mu_ticket_cls, *rwmutex_cls,
             *rw_ticket_cls, *trace_cls, *goro_cls, *tk_goro_cls,
             *gstate_cls, *gopanic_exc, *killed_exc, *deque_cls;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOOOO",
                          &chan_cls, &waiter_cls, &selctx_cls, &sendcase_cls,
                          &recvcase_cls, &mutex_cls, &mu_ticket_cls,
                          &rwmutex_cls, &rw_ticket_cls, &trace_cls,
                          &goro_cls, &tk_goro_cls, &gstate_cls,
                          &gopanic_exc, &killed_exc, &deque_cls))
        return NULL;
    if (!hl_bound) {
        PyErr_SetString(PyExc_RuntimeError,
                        "bind() must run before bind_fastops()");
        return NULL;
    }
    fo_bound = 0;

#define OFFSET(cls, name, dst)                                      \
    do {                                                            \
        if (member_offset(cls, name, &dst) < 0)                     \
            return NULL;                                            \
    } while (0)
    OFFSET(chan_cls, "_sched", off_ch_sched);
    OFFSET(chan_cls, "capacity", off_ch_capacity);
    OFFSET(chan_cls, "_buf", off_ch_buf);
    OFFSET(chan_cls, "_send_waiters", off_ch_sendw);
    OFFSET(chan_cls, "_recv_waiters", off_ch_recvw);
    OFFSET(chan_cls, "_closed", off_ch_closed);
    OFFSET(chan_cls, "_send_seq", off_ch_sendseq);
    OFFSET(chan_cls, "_reason_send", off_ch_reason_send);
    OFFSET(chan_cls, "_reason_recv", off_ch_reason_recv);
    OFFSET(waiter_cls, "goroutine", off_w_goroutine);
    OFFSET(waiter_cls, "payload", off_w_payload);
    OFFSET(waiter_cls, "value", off_w_value);
    OFFSET(waiter_cls, "ok", off_w_ok);
    OFFSET(waiter_cls, "completed", off_w_completed);
    OFFSET(waiter_cls, "select_ctx", off_w_selctx);
    OFFSET(waiter_cls, "case_index", off_w_caseidx);
    OFFSET(selctx_cls, "winner", off_sc_winner);
    OFFSET(selctx_cls, "value", off_sc_value);
    OFFSET(selctx_cls, "ok", off_sc_ok);
    OFFSET(sendcase_cls, "channel", off_case_channel);
    OFFSET(sendcase_cls, "value", off_case_value);
    OFFSET(mutex_cls, "_sched", off_mu_sched);
    OFFSET(mutex_cls, "_locked", off_mu_locked);
    OFFSET(mutex_cls, "_owner", off_mu_owner);
    OFFSET(mutex_cls, "_waiters", off_mu_waiters);
    OFFSET(mutex_cls, "_reason", off_mu_reason);
    OFFSET(mu_ticket_cls, "goroutine", off_mtix_goroutine);
    OFFSET(mu_ticket_cls, "granted", off_mtix_granted);
    OFFSET(rwmutex_cls, "_sched", off_rw_sched);
    OFFSET(rwmutex_cls, "writer_priority", off_rw_wprio);
    OFFSET(rwmutex_cls, "_readers", off_rw_readers);
    OFFSET(rwmutex_cls, "_writer", off_rw_writer);
    OFFSET(rwmutex_cls, "_pending_writers", off_rw_pw);
    OFFSET(rwmutex_cls, "_pending_readers", off_rw_pr);
    OFFSET(rwmutex_cls, "_reason_r", off_rw_reason_r);
    OFFSET(rwmutex_cls, "_reason_w", off_rw_reason_w);
    OFFSET(rw_ticket_cls, "goroutine", off_rwtix_goroutine);
    OFFSET(rw_ticket_cls, "granted", off_rwtix_granted);
    OFFSET(trace_cls, "active", off_trace_active);
    OFFSET(goro_cls, "gid", off_g_gid);
    OFFSET(goro_cls, "block_reason", off_g_blockreason);
    OFFSET(goro_cls, "external", off_g_external);
    OFFSET(goro_cls, "pending_error", off_g_pending);
    OFFSET(goro_cls, "_killed", off_g_killed);
    OFFSET(tk_goro_cls, "_hub", off_tkg_hub);
#undef OFFSET

#define STORE_TYPE(dst, src)                                        \
    do {                                                            \
        if (!PyType_Check(src)) {                                   \
            PyErr_SetString(PyExc_TypeError, "expected a class");   \
            return NULL;                                            \
        }                                                           \
        Py_INCREF(src);                                             \
        Py_XSETREF(dst, (PyTypeObject *)(src));                     \
    } while (0)
    STORE_TYPE(fo_chan, chan_cls);
    STORE_TYPE(fo_waiter, waiter_cls);
    STORE_TYPE(fo_selctx, selctx_cls);
    STORE_TYPE(fo_sendcase, sendcase_cls);
    STORE_TYPE(fo_recvcase, recvcase_cls);
    STORE_TYPE(fo_mutex, mutex_cls);
    STORE_TYPE(fo_mu_ticket, mu_ticket_cls);
    STORE_TYPE(fo_rwmutex, rwmutex_cls);
    STORE_TYPE(fo_rw_ticket, rw_ticket_cls);
    STORE_TYPE(fo_trace, trace_cls);
    STORE_TYPE(fo_goro, goro_cls);
#undef STORE_TYPE

    {
        PyObject *b = PyObject_GetAttrString(gstate_cls, "BLOCKED");
        if (b == NULL)
            return NULL;
        Py_XSETREF(st_blocked, b);
    }
    Py_INCREF(gopanic_exc);
    Py_XSETREF(fo_gopanic, gopanic_exc);
    Py_INCREF(killed_exc);
    Py_XSETREF(fo_killed, killed_exc);

#define DQ_METH(dst, name)                                          \
    do {                                                            \
        PyObject *mth = PyObject_GetAttrString(deque_cls, name);    \
        if (mth == NULL)                                            \
            return NULL;                                            \
        Py_XSETREF(dst, mth);                                       \
    } while (0)
    DQ_METH(dq_popleft_m, "popleft");
    DQ_METH(dq_append_m, "append");
    DQ_METH(dq_remove_m, "remove");
#undef DQ_METH

    fo_bound = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef hl_methods[] = {
    {"bind", hl_bind, METH_VARARGS,
     "bind(Goroutine, TaskletGoroutine, GState, TaskletOrNone): cache slot "
     "offsets, state constants and the continuation switch."},
    {"drive", hl_drive, METH_O,
     "drive(scheduler) -> verdict str, or None when the compiled loop "
     "cannot run this scheduler (pure loop takes over)."},
    {"bind_fastops", hl_bind_fastops, METH_VARARGS,
     "bind_fastops(Channel, _Waiter, _SelectContext, SendCase, RecvCase, "
     "Mutex, MutexTicket, RWMutex, RWTicket, Trace, Goroutine, "
     "TaskletGoroutine, GState, GoPanic, Killed, deque): cache the slot "
     "offsets and classes the channel/select/sync fast ops need."},
    {"chan_send", (PyCFunction)fo_chan_send, METH_FASTCALL,
     "chan_send(ch, value) -> None, or NotImplemented to use the pure op."},
    {"chan_recv", (PyCFunction)fo_chan_recv, METH_O,
     "chan_recv(ch) -> (value, ok), or NotImplemented."},
    {"chan_try_send", (PyCFunction)fo_chan_try_send, METH_FASTCALL,
     "chan_try_send(ch, value) -> bool, or NotImplemented."},
    {"chan_try_recv", (PyCFunction)fo_chan_try_recv, METH_O,
     "chan_try_recv(ch) -> (value, ok, received), or NotImplemented."},
    {"select_op", (PyCFunction)fo_select, METH_FASTCALL,
     "select_op(sched, cases, default) -> (index, value, ok), or "
     "NotImplemented."},
    {"mutex_lock", (PyCFunction)fo_mutex_lock, METH_O,
     "mutex_lock(mu) -> None, or NotImplemented."},
    {"mutex_trylock", (PyCFunction)fo_mutex_trylock, METH_O,
     "mutex_trylock(mu) -> bool, or NotImplemented."},
    {"mutex_unlock", (PyCFunction)fo_mutex_unlock, METH_O,
     "mutex_unlock(mu) -> None, or NotImplemented."},
    {"rw_rlock", (PyCFunction)fo_rw_rlock, METH_O,
     "rw_rlock(rw) -> None, or NotImplemented."},
    {"rw_runlock", (PyCFunction)fo_rw_runlock, METH_O,
     "rw_runlock(rw) -> None, or NotImplemented."},
    {"rw_lock", (PyCFunction)fo_rw_lock, METH_O,
     "rw_lock(rw) -> None, or NotImplemented."},
    {"rw_unlock", (PyCFunction)fo_rw_unlock, METH_O,
     "rw_unlock(rw) -> None, or NotImplemented."},
    {"vc_join", (PyCFunction)hl_vc_join, METH_FASTCALL,
     "vc_join(v, o): in-place pointwise max of two dense count lists."},
    {"vc_le", (PyCFunction)hl_vc_le, METH_FASTCALL,
     "vc_le(v, o) -> bool: pointwise v <= o with zero padding."},
    {"fastops_stats", (PyCFunction)hl_fastops_stats, METH_FASTCALL,
     "fastops_stats(reset=False) -> {'engaged': {...}, 'bailed': {...}} "
     "per-op counters for the compiled fast paths."},
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
    INTERN(v_stopped, "stopped");
    INTERN(v_timeout, "timeout");
    INTERN(v_steps, "steps");
    INTERN(v_idle, "idle");
    INTERN(s_trace, "trace");
    INTERN(s_injector, "injector");
    INTERN(s_preempt, "preempt");
    INTERN(s_yield, "yield_to_scheduler");
    INTERN(r_select, "select");
#undef INTERN

#define MKSTR(var, text)                                    \
    do {                                                    \
        var = PyUnicode_FromString(text);                   \
        if (var == NULL) {                                  \
            Py_DECREF(m);                                   \
            return NULL;                                    \
        }                                                   \
    } while (0)
    MKSTR(msg_send_closed, "send on closed channel");
    MKSTR(msg_mu_unlock, "sync: unlock of unlocked mutex");
    MKSTR(msg_rw_runlock, "sync: RUnlock of unlocked RWMutex");
    MKSTR(msg_rw_unlock, "sync: Unlock of unlocked RWMutex");
#undef MKSTR
    long_zero = PyLong_FromLong(0);
    if (long_zero == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
