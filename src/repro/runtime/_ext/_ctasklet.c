/* _ctasklet: minimal single-threaded stack-switching continuations.
 *
 * The coroutine scheduler backend (repro.runtime) wants greenlet semantics
 * -- suspend an arbitrary plain-Python call stack and resume it later, all
 * on one OS thread -- without depending on the optional greenlet package.
 * This module implements exactly the slice of greenlet the scheduler uses:
 *
 *   current()                 -> the thread's main tasklet (its original stack)
 *   Tasklet(target, parent)   -> a new continuation running ``target()``
 *   t.switch()                -> transfer control to ``t`` until it yields back
 *   t.throw(exc)              -> resume ``t`` with ``exc`` raised at its
 *                                suspension point (used for Killed unwinding)
 *
 * Supported platform: CPython 3.11, x86-64 System V (Linux).  The build is
 * gated (see repro/runtime/_ext/build.py): anywhere else the scheduler falls
 * back to generator or thread hosts with identical schedules.
 *
 * How a switch works
 * ------------------
 * Each continuation owns a private mmap'd C stack (plus a PROT_NONE guard
 * page).  A switch saves the callee-saved registers and the stack pointer,
 * then the pieces of ``PyThreadState`` that CPython 3.11 threads through the
 * C stack or scopes per logical "coroutine":
 *
 *   - ``cframe``                       (chain of _PyCFrame on the C stack)
 *   - ``datastack_chunk/top/limit``    (the Python frame bump allocator;
 *                                       each continuation gets its own chunks)
 *   - ``exc_info`` / ``exc_state``     (the active-except stack)
 *   - ``recursion_remaining``          (depth accounting)
 *   - ``trash_delete_nesting/later``   (trashcan state, for symmetry)
 *
 * and finally swaps %rsp.  All switches stay on one OS thread holding the
 * GIL throughout, so no locking is involved anywhere.
 *
 * Memory a continuation leaves behind
 * -----------------------------------
 * A continuation that runs to completion has popped all its Python frames,
 * but CPython never frees a thread's *root* datastack chunk: the 16 KiB
 * chunk the first frame push allocated.  So before its dying switch a
 * finished continuation parks that root chunk on a small free list (any
 * other chunk left on its chain is freed through the arena allocator), and
 * the next fresh continuation starts on the parked chunk instead of
 * allocating one.  Its C stack goes back to a second free list when the
 * Tasklet object is released.  Both lists are per OS thread and hold at
 * most TK_FREELIST_MAX entries; when the thread exits, a pthread key
 * destructor unmaps the parked stacks and frees the parked chunks (see
 * tk_thread_exit).  The thread's main tasklet object stays: it is a
 * Python object, and the exiting thread no longer holds the GIL to
 * release it.  A continuation abandoned while
 * suspended (user code swallowed the Killed signal -- the "stuck host"
 * case) still owns live frames on both, so it keeps its stack and its
 * chunks by design, mirroring the abandoned-OS-thread behaviour of the
 * thread backend.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <pthread.h>
#include <stdint.h>
#include <string.h>
#include <sys/mman.h>

/* AddressSanitizer builds (CI's ASan leg) must be told about the stack
 * switches: which stack is about to run, and that a released stack's
 * redzone poison is stale. */
#if defined(__SANITIZE_ADDRESS__)
#define TK_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__) || !defined(__linux__)
#error "_ctasklet only supports x86-64 Linux"
#endif
#if PY_VERSION_HEX < 0x030b0000 || PY_VERSION_HEX >= 0x030c0000
#error "_ctasklet only supports CPython 3.11"
#endif

/* ------------------------------------------------------------------ */
/* The raw stack switch (x86-64 SysV).                                 */
/* ------------------------------------------------------------------ */

/* void _tk_slp_switch(void **save_sp, void *restore_sp)
 *
 * Pushes the callee-saved registers and the FPU/SSE control words onto the
 * current stack, publishes %rsp through *save_sp, installs restore_sp and
 * pops the same image.  ``ret`` then resumes whatever the restored stack
 * was doing -- either the matching _tk_slp_switch call of a previously
 * suspended continuation, or the bootstrap image built by tk_new_stack(). */
__asm__(
    ".text\n"
    ".globl _tk_slp_switch\n"
    ".hidden _tk_slp_switch\n"
    ".type _tk_slp_switch,@function\n"
    "_tk_slp_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq  $16, %rsp\n"
    "    stmxcsr 8(%rsp)\n"
    "    fnstcw  12(%rsp)\n"
    "    movq  %rsp, (%rdi)\n"
    "    movq  %rsi, %rsp\n"
    "    ldmxcsr 8(%rsp)\n"
    "    fldcw   12(%rsp)\n"
    "    addq  $16, %rsp\n"
    "    popq  %r15\n"
    "    popq  %r14\n"
    "    popq  %r13\n"
    "    popq  %r12\n"
    "    popq  %rbx\n"
    "    popq  %rbp\n"
    "    ret\n"
    ".size _tk_slp_switch,.-_tk_slp_switch\n");

extern void _tk_slp_switch(void **save_sp, void *restore_sp);

/* ------------------------------------------------------------------ */
/* Tasklet object                                                      */
/* ------------------------------------------------------------------ */

enum { TK_NEW = 0, TK_STARTED = 1, TK_DEAD = 2 };

/* Marker for "exc_info pointed at the thread state's own base item". */
#define TK_EXC_BASE ((_PyErr_StackItem *)1)

typedef struct TaskletObject {
    PyObject_HEAD
    struct TaskletObject *parent;   /* strong ref; NULL only for main     */
    PyObject *target;               /* strong ref; cleared after it runs  */
    PyThreadState *tstate;          /* owning thread                      */

    void *stack_mem;                /* mmap base, NULL for main           */
    void *sp;                       /* saved %rsp while suspended         */

    /* Saved per-continuation PyThreadState slice while suspended. */
    _PyCFrame *cframe;
    _PyStackChunk *datastack_chunk;
    PyObject **datastack_top;
    PyObject **datastack_limit;
    _PyErr_StackItem *exc_info;
    _PyErr_StackItem exc_state;
    int recursion_remaining;
    int trash_delete_nesting;
    PyObject *trash_delete_later;

    /* Exception to deliver at the next resume (throw / kill). */
    PyObject *pend_type;
    PyObject *pend_value;

    int state;
#ifdef TK_ASAN
    /* The usable C stack, for the sanitizer's fiber switch; main's is
     * learned the first time control leaves it. */
    const void *stack_bottom;
    size_t stack_size;
#endif
} TaskletObject;

static PyTypeObject Tasklet_Type;

/* All switching state is per OS thread; the scheduler is single-threaded
 * by construction but test suites may drive independent runs from several
 * threads, so keep it honest with thread locals. */
static __thread TaskletObject *tk_current = NULL;   /* strong ref */
static __thread TaskletObject *tk_handover = NULL;  /* ref the resumed side drops */
static __thread TaskletObject *tk_boot = NULL;      /* tasklet being bootstrapped */

/* Usable stack: C-stack consumption per Python frame is tiny in 3.11
 * (frames live on the datastack), so this mostly bounds C-mediated
 * recursion (builtins calling back into Python).  Every stack is mapped
 * at TK_MAP_SIZE, guard page included. */
#define TK_STACK_SIZE (512 * 1024)
#define TK_GUARD_SIZE 4096
#define TK_MAP_SIZE (TK_STACK_SIZE + TK_GUARD_SIZE)

/* Recycled stacks.  Spawn-heavy simulations create and retire goroutines
 * constantly; recycling keeps that off the mmap/munmap path. */
#define TK_FREELIST_MAX 64
static __thread void *tk_freelist[TK_FREELIST_MAX];
static __thread int tk_freelist_len = 0;

/* Recycled root datastack chunks, CPython's default chunk size (its
 * DATA_STACK_CHUNK_SIZE).  A root chunk that a huge first frame made
 * bigger is freed instead. */
#define TK_CHUNK_SIZE (16 * 1024)
static __thread _PyStackChunk *tk_chunk_freelist[TK_FREELIST_MAX];
static __thread int tk_chunk_freelist_len = 0;

/* Frees a chunk the way CPython's _PyObject_VirtualFree does. */
static void
tk_free_chunk(_PyStackChunk *chunk)
{
    PyObjectArenaAllocator arena;
    PyObject_GetArenaAllocator(&arena);
    arena.free(arena.ctx, chunk, chunk->size);
}

/* Thread exit: both free lists are thread locals, so an OS thread that
 * drove tasklet runs and then ends would leak whatever it parked.  The
 * key's destructor runs in the exiting thread, after its Python thread
 * state is gone; unmapping a stack and the default arena allocator's
 * free (an munmap) need no GIL. */
static pthread_key_t tk_exit_key;
static pthread_once_t tk_exit_once = PTHREAD_ONCE_INIT;
static int tk_exit_key_made = 0;
static __thread int tk_exit_armed = 0;

static void
tk_thread_exit(void *unused)
{
    (void)unused;
    while (tk_freelist_len > 0)
        munmap(tk_freelist[--tk_freelist_len], TK_MAP_SIZE);
    while (tk_chunk_freelist_len > 0)
        tk_free_chunk(tk_chunk_freelist[--tk_chunk_freelist_len]);
    tk_exit_armed = 0;
}

static void
tk_make_exit_key(void)
{
    tk_exit_key_made = pthread_key_create(&tk_exit_key, tk_thread_exit) == 0;
}

/* Called before parking anything: makes sure this thread's exit runs
 * tk_thread_exit (a key's destructor runs only for a non-NULL value). */
static void
tk_arm_thread_exit(void)
{
    if (tk_exit_armed)
        return;
    pthread_once(&tk_exit_once, tk_make_exit_key);
    if (tk_exit_key_made && pthread_setspecific(tk_exit_key, &tk_exit_armed) == 0)
        tk_exit_armed = 1;
}

/* ------------------------------------------------------------------ */
/* PyThreadState slice save/restore                                    */
/* ------------------------------------------------------------------ */

static void
tk_save_py_state(TaskletObject *t, PyThreadState *ts)
{
    t->cframe = ts->cframe;
    t->datastack_chunk = ts->datastack_chunk;
    t->datastack_top = ts->datastack_top;
    t->datastack_limit = ts->datastack_limit;
    t->exc_info = (ts->exc_info == &ts->exc_state) ? TK_EXC_BASE : ts->exc_info;
    t->exc_state = ts->exc_state;
    t->recursion_remaining = ts->recursion_remaining;
    t->trash_delete_nesting = ts->trash_delete_nesting;
    t->trash_delete_later = ts->trash_delete_later;
}

static void
tk_restore_py_state(TaskletObject *t, PyThreadState *ts)
{
    ts->cframe = t->cframe;
    ts->datastack_chunk = t->datastack_chunk;
    ts->datastack_top = t->datastack_top;
    ts->datastack_limit = t->datastack_limit;
    ts->exc_state = t->exc_state;
    ts->exc_info = (t->exc_info == TK_EXC_BASE) ? &ts->exc_state : t->exc_info;
    ts->recursion_remaining = t->recursion_remaining;
    ts->trash_delete_nesting = t->trash_delete_nesting;
    ts->trash_delete_later = t->trash_delete_later;
}

static void
tk_fresh_py_state(PyThreadState *ts)
{
    /* What a brand-new logical coroutine starts from: the root cframe, a
     * parked root chunk if there is one (else none: CPython allocates on
     * first frame push), an empty except stack, and the recursion
     * allowance it inherits. */
    ts->cframe = &ts->root_cframe;
    if (tk_chunk_freelist_len > 0) {
        /* Installed the way CPython's push_chunk installs a root: frames
         * start at data[1], so _PyThreadState_PopFrame never frees it. */
        _PyStackChunk *chunk = tk_chunk_freelist[--tk_chunk_freelist_len];
        chunk->previous = NULL;
        chunk->top = 0;
        ts->datastack_chunk = chunk;
        ts->datastack_top = &chunk->data[1];
        ts->datastack_limit = (PyObject **)((char *)chunk + chunk->size);
    }
    else {
        ts->datastack_chunk = NULL;
        ts->datastack_top = NULL;
        ts->datastack_limit = NULL;
    }
    ts->exc_state.exc_value = NULL;
    ts->exc_state.previous_item = NULL;
    ts->exc_info = &ts->exc_state;
    ts->trash_delete_nesting = 0;
    ts->trash_delete_later = NULL;
    /* recursion_remaining: inherited (left untouched). */
}

/* Hand a finished continuation's datastack chunks on: park the root chunk
 * for the next fresh continuation, free the rest the way CPython's
 * _PyObject_VirtualFree does.  Its frames are all popped by now. */
static void
tk_retire_datastack(PyThreadState *ts)
{
    _PyStackChunk *chunk = ts->datastack_chunk;
    while (chunk != NULL) {
        _PyStackChunk *previous = chunk->previous;
        if (previous == NULL && chunk->size == TK_CHUNK_SIZE
                && tk_chunk_freelist_len < TK_FREELIST_MAX) {
            tk_arm_thread_exit();
            tk_chunk_freelist[tk_chunk_freelist_len++] = chunk;
        }
        else {
            tk_free_chunk(chunk);
        }
        chunk = previous;
    }
    ts->datastack_chunk = NULL;
    ts->datastack_top = NULL;
    ts->datastack_limit = NULL;
}

/* ------------------------------------------------------------------ */
/* Stacks                                                              */
/* ------------------------------------------------------------------ */

static void *
tk_alloc_stack(void)
{
    if (tk_freelist_len > 0)
        return tk_freelist[--tk_freelist_len];
    void *base = mmap(NULL, TK_MAP_SIZE, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
        PyErr_NoMemory();
        return NULL;
    }
    mprotect(base, TK_GUARD_SIZE, PROT_NONE);  /* low-address guard page */
    return base;
}

static void
tk_release_stack(void *base)
{
    if (base == NULL)
        return;
#ifdef TK_ASAN
    /* A continuation that never returned left redzone poison on its
     * frames; the stack's next user (or the next mapping there) must not
     * inherit it. */
    __asan_unpoison_memory_region((char *)base + TK_GUARD_SIZE,
                                  TK_STACK_SIZE);
#endif
    if (tk_freelist_len < TK_FREELIST_MAX) {
        tk_arm_thread_exit();
        tk_freelist[tk_freelist_len++] = base;
        return;
    }
    munmap(base, TK_MAP_SIZE);
}

/* ------------------------------------------------------------------ */
/* The transfer                                                        */
/* ------------------------------------------------------------------ */

static void tk_entry(void);

/* Build the bootstrap stack image _tk_slp_switch() will "resume": the
 * saved-register area plus a return address pointing at tk_entry, laid out
 * so tk_entry starts with standard call alignment (%rsp % 16 == 8). */
static void *
tk_bootstrap_sp(TaskletObject *t)
{
    uintptr_t top = ((uintptr_t)t->stack_mem + TK_MAP_SIZE) & ~(uintptr_t)15;
    uint64_t *slots = (uint64_t *)top;
    unsigned int mxcsr = 0;
    unsigned short fcw = 0;
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    __asm__ volatile("fnstcw %0" : "=m"(fcw));

    slots[-1] = 0;                       /* fake return address for tk_entry */
    slots[-2] = (uint64_t)&tk_entry;     /* ``ret`` target                   */
    slots[-3] = 0;                       /* rbp */
    slots[-4] = 0;                       /* rbx */
    slots[-5] = 0;                       /* r12 */
    slots[-6] = 0;                       /* r13 */
    slots[-7] = 0;                       /* r14 */
    slots[-8] = 0;                       /* r15 */
    slots[-9] = 0;                       /* fpu area high half (fcw at +12)  */
    slots[-10] = 0;                      /* fpu area low  half (mxcsr at +8) */
    memcpy((char *)&slots[-10] + 8, &mxcsr, sizeof(mxcsr));
    memcpy((char *)&slots[-10] + 12, &fcw, sizeof(fcw));
    return (void *)&slots[-10];
}

/* Code that runs immediately after control arrives in a (re)entered
 * continuation: drop the previous current's handover reference, then
 * surface any pending thrown exception.  Returns -1 with an exception set
 * when a throw was delivered. */
static int
tk_arrived(void)
{
    TaskletObject *dropped = tk_handover;
    tk_handover = NULL;
    Py_XDECREF(dropped);
    TaskletObject *self = tk_current;
    if (self != NULL && self->pend_type != NULL) {
        PyObject *type = self->pend_type;
        PyObject *value = self->pend_value;
        self->pend_type = NULL;
        self->pend_value = NULL;
        PyErr_SetObject(type, value);
        Py_DECREF(type);
        Py_XDECREF(value);
        return -1;
    }
    return 0;
}

#ifdef TK_ASAN
/* The sanitizer's half of a switch on the arriving side: restore this
 * stack's fake frames and learn the bounds of the stack just left, which
 * is how main's become known. */
static void
tk_finish_switch(void *fake_stack)
{
    const void *bottom;
    size_t size;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    if (tk_handover != NULL && tk_handover->stack_mem == NULL) {
        tk_handover->stack_bottom = bottom;
        tk_handover->stack_size = size;
    }
}
#endif

/* Switch from ``cur`` (the running continuation) to ``target``.
 * Returns -1 with an exception set when, on resumption, a thrown exception
 * is pending for ``cur``.  ``dying`` marks the terminal switch out of a
 * finished continuation (its own state is discarded, not saved). */
static int
tk_transfer(TaskletObject *cur, TaskletObject *target, int dying)
{
    PyThreadState *ts = cur->tstate;
#ifdef TK_ASAN
    void *fake_stack = NULL;
#endif

    if (!dying)
        tk_save_py_state(cur, ts);

    /* Hand the current-tasklet reference to the side that resumes next. */
    Py_INCREF(target);
    tk_current = target;
    tk_handover = cur;

#ifdef TK_ASAN
    /* A dying continuation passes NULL: its fake frames die with it. */
    __sanitizer_start_switch_fiber(dying ? NULL : &fake_stack,
                                   target->stack_bottom, target->stack_size);
#endif
    if (target->state == TK_NEW) {
        int recursion = ts->recursion_remaining;
        tk_fresh_py_state(ts);
        ts->recursion_remaining = recursion;
        target->state = TK_STARTED;
        tk_boot = target;
        _tk_slp_switch(&cur->sp, tk_bootstrap_sp(target));
    }
    else {
        tk_restore_py_state(target, ts);
        _tk_slp_switch(&cur->sp, target->sp);
    }
    /* Someone switched back into ``cur``: its PyThreadState slice was
     * restored by that switcher; finish the protocol on this side. */
#ifdef TK_ASAN
    tk_finish_switch(fake_stack);
#endif
    return tk_arrived();
}

static void
tk_entry(void)
{
    TaskletObject *self = tk_boot;
    tk_boot = NULL;
#ifdef TK_ASAN
    tk_finish_switch(NULL);
#endif
    if (tk_arrived() < 0) {
        /* A throw was delivered before the target ever ran; the Python
         * layer treats this as killed-before-start.  Nothing to unwind. */
        PyErr_Clear();
    }
    else if (self->target != NULL) {
        PyObject *result = PyObject_CallNoArgs(self->target);
        if (result == NULL) {
            /* The scheduler always passes a catch-all wrapper, so an escaped
             * exception is a bug in the embedding -- report, don't crash. */
            PyErr_WriteUnraisable(self->target);
        }
        else {
            Py_DECREF(result);
        }
    }
    Py_CLEAR(self->target);
    Py_CLEAR(self->pend_type);
    Py_CLEAR(self->pend_value);
    self->state = TK_DEAD;
    /* After the clears above: a __del__ they run pushes its frames on this
     * continuation's chunks. */
    tk_retire_datastack(self->tstate);

    TaskletObject *parent = self->parent;
    while (parent != NULL && parent->state == TK_DEAD)
        parent = parent->parent;
    /* parent chains always end at the immortal main tasklet */
    tk_transfer(self, parent, 1);
    /* unreachable: nothing ever switches back into a dead tasklet */
    Py_FatalError("_ctasklet: resumed a dead continuation");
}

/* ------------------------------------------------------------------ */
/* Python-facing type                                                  */
/* ------------------------------------------------------------------ */

static TaskletObject *
tk_new_object(void)
{
    TaskletObject *t = PyObject_New(TaskletObject, &Tasklet_Type);
    if (t == NULL)
        return NULL;
    t->parent = NULL;
    t->target = NULL;
    t->tstate = PyThreadState_Get();
    t->stack_mem = NULL;
    t->sp = NULL;
    t->pend_type = NULL;
    t->pend_value = NULL;
    t->state = TK_NEW;
    memset(&t->exc_state, 0, sizeof(t->exc_state));
#ifdef TK_ASAN
    t->stack_bottom = NULL;
    t->stack_size = 0;
#endif
    return t;
}

/* The thread's main tasklet: represents the original C stack.  Created on
 * demand, kept alive for the thread's lifetime via the tk_current ref. */
static TaskletObject *
tk_get_current(void)
{
    if (tk_current == NULL) {
        TaskletObject *main_t = tk_new_object();
        if (main_t == NULL)
            return NULL;
        main_t->state = TK_STARTED;
        tk_current = main_t;  /* strong ref stays here */
    }
    return tk_current;
}

static PyObject *
mod_current(PyObject *module, PyObject *noargs)
{
    TaskletObject *cur = tk_get_current();
    if (cur == NULL)
        return NULL;
    Py_INCREF(cur);
    return (PyObject *)cur;
}

static PyObject *
tasklet_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"target", "parent", NULL};
    PyObject *target;
    TaskletObject *parent;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO!", kwlist, &target,
                                     &Tasklet_Type, &parent))
        return NULL;
    if (!PyCallable_Check(target)) {
        PyErr_SetString(PyExc_TypeError, "target must be callable");
        return NULL;
    }
    TaskletObject *t = tk_new_object();
    if (t == NULL)
        return NULL;
    t->stack_mem = tk_alloc_stack();
    if (t->stack_mem == NULL) {
        Py_DECREF(t);
        return NULL;
    }
#ifdef TK_ASAN
    t->stack_bottom = (char *)t->stack_mem + TK_GUARD_SIZE;
    t->stack_size = TK_STACK_SIZE;
#endif
    Py_INCREF(target);
    t->target = target;
    Py_INCREF(parent);
    t->parent = parent;
    return (PyObject *)t;
}

static int
tk_check_switchable(TaskletObject *self, TaskletObject *cur)
{
    if (self->tstate != cur->tstate) {
        PyErr_SetString(PyExc_RuntimeError,
                        "cannot switch to a tasklet owned by another thread");
        return -1;
    }
    if (self->state == TK_DEAD) {
        PyErr_SetString(PyExc_RuntimeError,
                        "cannot switch to a dead tasklet");
        return -1;
    }
    return 0;
}

static PyObject *
tasklet_switch(TaskletObject *self, PyObject *noargs)
{
    TaskletObject *cur = tk_get_current();
    if (cur == NULL)
        return NULL;
    if (self == cur)
        Py_RETURN_NONE;
    if (tk_check_switchable(self, cur) < 0)
        return NULL;
    if (tk_transfer(cur, self, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tasklet_throw(TaskletObject *self, PyObject *exc)
{
    TaskletObject *cur = tk_get_current();
    if (cur == NULL)
        return NULL;
    if (self == cur) {
        PyErr_SetString(PyExc_RuntimeError,
                        "a tasklet cannot throw into itself");
        return NULL;
    }
    if (self->state == TK_DEAD)
        Py_RETURN_NONE;  /* nothing left to unwind */
    if (self->state == TK_NEW) {
        /* Killed before it ever ran: no frames exist, just retire it. */
        self->state = TK_DEAD;
        Py_CLEAR(self->target);
        tk_release_stack(self->stack_mem);
        self->stack_mem = NULL;
        Py_RETURN_NONE;
    }
    if (self->tstate != cur->tstate) {
        PyErr_SetString(PyExc_RuntimeError,
                        "cannot throw into a tasklet owned by another thread");
        return NULL;
    }
    PyObject *type, *value;
    if (PyExceptionInstance_Check(exc)) {
        type = (PyObject *)Py_TYPE(exc);
        value = exc;
        Py_INCREF(value);
    }
    else if (PyExceptionClass_Check(exc)) {
        type = exc;
        value = NULL;
    }
    else {
        PyErr_SetString(PyExc_TypeError,
                        "throw() argument must be an exception");
        return NULL;
    }
    Py_INCREF(type);
    Py_XSETREF(self->pend_type, type);
    Py_XSETREF(self->pend_value, value);
    if (tk_transfer(cur, self, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
tasklet_dealloc(TaskletObject *self)
{
    if (self->state == TK_STARTED && self->stack_mem != NULL) {
        /* A suspended continuation still owns live Python frames we cannot
         * unwind from here; abandon the stack (the scheduler's kill path
         * prevents this except for deliberately abandoned stuck hosts). */
        self->stack_mem = NULL;
    }
    tk_release_stack(self->stack_mem);
    Py_CLEAR(self->parent);
    Py_CLEAR(self->target);
    Py_CLEAR(self->pend_type);
    Py_CLEAR(self->pend_value);
    PyObject_Free(self);
}

static PyObject *
tasklet_get_dead(TaskletObject *self, void *closure)
{
    return PyBool_FromLong(self->state == TK_DEAD);
}

static PyMethodDef tasklet_methods[] = {
    {"switch", (PyCFunction)tasklet_switch, METH_NOARGS,
     "Transfer control to this tasklet until it switches elsewhere."},
    {"throw", (PyCFunction)tasklet_throw, METH_O,
     "Resume this tasklet with the given exception raised at its "
     "suspension point."},
    {NULL},
};

static PyGetSetDef tasklet_getset[] = {
    {"dead", (getter)tasklet_get_dead, NULL, "completed or killed", NULL},
    {NULL},
};

static PyTypeObject Tasklet_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_ctasklet.Tasklet",
    .tp_basicsize = sizeof(TaskletObject),
    .tp_dealloc = (destructor)tasklet_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A single-threaded stack-switching continuation.",
    .tp_methods = tasklet_methods,
    .tp_getset = tasklet_getset,
    .tp_new = tasklet_new,
};

static PyMethodDef module_methods[] = {
    {"current", mod_current, METH_NOARGS,
     "The calling thread's main tasklet (created on first use)."},
    {NULL},
};

static struct PyModuleDef ctasklet_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ctasklet",
    .m_doc = "Minimal stack-switching continuations for the repro scheduler.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ctasklet(void)
{
    PyObject *module = PyModule_Create(&ctasklet_module);
    if (module == NULL)
        return NULL;
    if (PyType_Ready(&Tasklet_Type) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&Tasklet_Type);
    if (PyModule_AddObject(module, "Tasklet", (PyObject *)&Tasklet_Type) < 0) {
        Py_DECREF(&Tasklet_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
