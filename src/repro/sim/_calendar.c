/* Native-key calendar for repro.sim.engine.
 *
 * A binary min-heap of the engine's entries -- tuples that start with
 * (fire, sched, seq) -- which keeps each entry's key unboxed beside the
 * pointer to the unchanged tuple, so a sift step is three machine compares
 * instead of two PyObject_RichCompare calls through boxed floats.  The sift
 * algorithm is _heapqmodule.c's, step for step: list(cal) is the list heapq
 * would hold after the same pushes and pops.  A tie on the whole native key
 * falls through to comparing the tuples themselves, exactly as heapq would
 * (same order, same TypeError).
 *
 * Only the calendar is here.  The run loops, Event and everything of
 * Port / Host stay in Python; repro/sim/calendar.py compiles this file on
 * first import and falls back to heapq over a list when it cannot.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#ifndef SOURCE_SHA256 /* calendar.py passes the hash of this file */
#define SOURCE_SHA256 ""
#endif

typedef struct {
    double fire, sched;
    long long seq;
    PyObject *entry; /* owned */
} Slot;

typedef struct {
    PyObject_HEAD
    Slot *a;
    Py_ssize_t n, cap;
} Calendar;

static PyTypeObject Calendar_Type;

/* One time component of the key as a double.  NaN would make `<` a partial
 * order and is refused.  An int is compared as the double it converts to,
 * which is the int itself below 2**53 (104 days of simulated nanoseconds). */
static int as_time(PyObject *o, double *out)
{
    double d = PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    if (d != d) {
        PyErr_SetString(PyExc_ValueError, "calendar time is NaN");
        return -1;
    }
    *out = d;
    return 0;
}

/* Fill `s` from `entry` (borrowed; the caller takes the reference). */
static int slot_from(Slot *s, PyObject *entry)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) < 3 ||
        !PyLong_Check(PyTuple_GET_ITEM(entry, 2))) {
        PyErr_Format(PyExc_TypeError,
                     "calendar entry must be a tuple (fire, sched, int seq, ...), got %R", entry);
        return -1;
    }
    if (as_time(PyTuple_GET_ITEM(entry, 0), &s->fire) < 0 ||
        as_time(PyTuple_GET_ITEM(entry, 1), &s->sched) < 0)
        return -1;
    s->seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 2));
    if (s->seq == -1 && PyErr_Occurred())
        return -1;
    s->entry = entry;
    return 0;
}

/* Whole-key tie: compare the tuples, as heapq does from the start.  That can
 * run Python code, which must not have resized the calendar under the sift
 * (heapq's own rule for its list). */
static int tie_lt(Calendar *c, PyObject *x, PyObject *y)
{
    Py_ssize_t n = c->n;
    int lt;
    Py_INCREF(x);
    Py_INCREF(y);
    lt = PyObject_RichCompareBool(x, y, Py_LT);
    Py_DECREF(x);
    Py_DECREF(y);
    if (lt >= 0 && c->n != n) {
        PyErr_SetString(PyExc_RuntimeError, "calendar changed size during a comparison");
        return -1;
    }
    return lt;
}

/* a[i] < a[j]: 1, 0, or -1 with an exception set. */
static inline int slot_lt(Calendar *c, Py_ssize_t i, Py_ssize_t j)
{
    const Slot *x = &c->a[i], *y = &c->a[j];
    if (x->fire != y->fire)
        return x->fire < y->fire;
    if (x->sched != y->sched)
        return x->sched < y->sched;
    if (x->seq != y->seq)
        return x->seq < y->seq;
    return tie_lt(c, x->entry, y->entry);
}

static inline void swap(Calendar *c, Py_ssize_t i, Py_ssize_t j)
{
    Slot t = c->a[i];
    c->a[i] = c->a[j];
    c->a[j] = t;
}

/* _heapqmodule.c's siftdown: walk a[pos] up towards startpos. */
static int siftdown(Calendar *c, Py_ssize_t startpos, Py_ssize_t pos)
{
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        int lt = slot_lt(c, pos, parent);
        if (lt <= 0)
            return lt;
        swap(c, pos, parent);
        pos = parent;
    }
    return 0;
}

/* _heapqmodule.c's siftup: bubble the smaller child up until a leaf, then
 * sift the displaced item back down to its place. */
static int siftup(Calendar *c, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, end = c->n, limit = end >> 1;
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        if (child + 1 < end) {
            int lt = slot_lt(c, child, child + 1);
            if (lt < 0)
                return -1;
            child += !lt;
        }
        swap(c, pos, child);
        pos = child;
    }
    return siftdown(c, startpos, pos);
}

static int append(Calendar *c, PyObject *entry)
{
    Slot s;
    if (slot_from(&s, entry) < 0)
        return -1;
    if (c->n == c->cap) {
        Py_ssize_t cap = c->cap ? c->cap * 2 : 64;
        Slot *a = NULL;
        if (cap <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Slot))
            a = PyMem_Realloc(c->a, (size_t)cap * sizeof(Slot));
        if (a == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->a = a;
        c->cap = cap;
    }
    Py_INCREF(entry);
    c->a[c->n++] = s;
    return 0;
}

/* heappush / heappop take a Calendar and nothing else: a list here would be
 * a heap this module cannot keep in order. */
static Calendar *as_calendar(PyObject *o)
{
    if (Py_TYPE(o) == &Calendar_Type)
        return (Calendar *)o;
    PyErr_Format(PyExc_TypeError, "expected a Calendar, got %.80s", Py_TYPE(o)->tp_name);
    return NULL;
}

static PyObject *cal_heappush(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    Calendar *c;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "heappush(calendar, entry) takes two arguments");
        return NULL;
    }
    c = as_calendar(args[0]);
    if (c == NULL || append(c, args[1]) < 0 || siftdown(c, 0, c->n - 1) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *cal_heappop(PyObject *Py_UNUSED(m), PyObject *arg)
{
    Calendar *c = as_calendar(arg);
    PyObject *top;
    Slot last;
    if (c == NULL)
        return NULL;
    if (c->n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    last = c->a[--c->n];
    if (c->n == 0)
        return last.entry;
    top = c->a[0].entry;
    c->a[0] = last;
    if (siftup(c, 0) < 0)
        Py_CLEAR(top);
    return top;
}

static int cal_clear(Calendar *c)
{
    Slot *a = c->a;
    Py_ssize_t n = c->n;
    c->a = NULL; /* emptied first: a finalizer may look at the calendar */
    c->n = c->cap = 0;
    while (n--)
        Py_DECREF(a[n].entry);
    PyMem_Free(a);
    return 0;
}

static void cal_dealloc(Calendar *c)
{
    PyObject_GC_UnTrack(c);
    cal_clear(c);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static int cal_traverse(Calendar *c, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < c->n; i++)
        Py_VISIT(c->a[i].entry);
    return 0;
}

/* Calendar(iterable=()): the entries, heapified as heapq.heapify would. */
static PyObject *cal_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *iterable = NULL, *seq;
    Calendar *c;
    Py_ssize_t i;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0) {
        PyErr_SetString(PyExc_TypeError, "Calendar() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "Calendar", 0, 1, &iterable))
        return NULL;
    c = (Calendar *)type->tp_alloc(type, 0);
    if (c == NULL || iterable == NULL)
        return (PyObject *)c;
    seq = PySequence_Fast(iterable, "Calendar() argument must be iterable");
    for (i = 0; seq != NULL && i < PySequence_Fast_GET_SIZE(seq); i++)
        if (append(c, PySequence_Fast_GET_ITEM(seq, i)) < 0)
            Py_CLEAR(seq);
    for (i = (c->n >> 1) - 1; seq != NULL && i >= 0; i--)
        if (siftup(c, i) < 0)
            Py_CLEAR(seq);
    if (seq == NULL) /* an exception is set */
        Py_CLEAR(c);
    Py_XDECREF(seq);
    return (PyObject *)c;
}

static Py_ssize_t cal_length(Calendar *c)
{
    return c->n;
}

/* cal[i]; with no tp_iter, iteration and list(cal) come through here too. */
static PyObject *cal_item(Calendar *c, Py_ssize_t i)
{
    if (i < 0 || i >= c->n) {
        PyErr_SetString(PyExc_IndexError, "Calendar index out of range");
        return NULL;
    }
    Py_INCREF(c->a[i].entry);
    return c->a[i].entry;
}

static PySequenceMethods cal_as_sequence = {
    .sq_length = (lenfunc)cal_length,
    .sq_item = (ssizeargfunc)cal_item,
};

static PyTypeObject Calendar_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._calendar.Calendar",
    .tp_doc = "Calendar(iterable=()) -- heap of (fire, sched, seq, ...) tuples, native keys.",
    .tp_basicsize = sizeof(Calendar),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = cal_new,
    .tp_dealloc = (destructor)cal_dealloc,
    .tp_traverse = (traverseproc)cal_traverse,
    .tp_clear = (inquiry)cal_clear,
    .tp_as_sequence = &cal_as_sequence,
};

static PyMethodDef methods[] = {
    {"heappush", (PyCFunction)(void (*)(void))cal_heappush, METH_FASTCALL,
     "heappush(calendar, entry) -- as heapq.heappush, on a Calendar only."},
    {"heappop", cal_heappop, METH_O,
     "heappop(calendar) -- as heapq.heappop, on a Calendar only."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_calendar", "Native-key event calendar (see _calendar.c).", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__calendar(void)
{
    PyObject *m;
    if (PyType_Ready(&Calendar_Type) < 0 || (m = PyModule_Create(&moduledef)) == NULL)
        return NULL;
    Py_INCREF(&Calendar_Type);
    if (PyModule_AddObject(m, "Calendar", (PyObject *)&Calendar_Type) < 0 ||
        PyModule_AddStringConstant(m, "SOURCE_SHA256", SOURCE_SHA256) < 0)
        Py_CLEAR(m);
    return m;
}
