/* Algorithm 1's heap loop, compiled.
 *
 * The twin of repro.sim.full_sim._python_sweep, with its signature and
 * contract:
 *
 *     _sweep(heap, exe, dev, rank, all_outs, indeg, slot_ready, start, end,
 *            dev_end, lb=None, bound=inf) -> bool
 *
 * repro.sim.native builds this file when repro.sim.full_sim is first
 * imported, and full_sim binds its _sweep to it.  The loop pops in the
 * Python loop's (ready, rank) order and adds and compares the same doubles,
 * so its timelines are bit-identical:
 *
 * - It keeps its own binary heap of (ready, rank, slot) entries.  Live ranks
 *   are unique, so it pops in heapq's order.  It takes the caller's heap
 *   list as its start and leaves it empty.
 * - It reads exe, dev, rank and all_outs in place, and writes indeg,
 *   slot_ready, start, end, dev_end and lb in place, at the same points as
 *   the Python loop.
 * - It creates one float per popped task, its end time (and, when bounded,
 *   the new lb entry of an idle gap).  Every other entry it writes is an
 *   existing object, as in the Python loop: a start is the popped ready
 *   time or the device's last end time.  Its only scratch memory is the
 *   heap array.
 * - Every index is checked: an out-of-range slot, successor or device
 *   raises IndexError (negative ones too, where a list would wrap them),
 *   and a malformed heap entry raises TypeError.
 *
 * Build it with -O2 -ffp-contract=off, never with -ffast-math or
 * -march=native: every sum must round exactly as Python's does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    double ready;
    long long rank;
    Py_ssize_t slot;
    PyObject *obj; /* the ready time as pushed: a strong reference */
} Entry;

typedef struct {
    Entry *at;
    Py_ssize_t len, cap;
} Heap;

/* heapq's order on (ready, rank, slot) tuples; times are never NaN. */
static inline int
before(const Entry *a, const Entry *b)
{
    if (a->ready != b->ready)
        return a->ready < b->ready;
    if (a->rank != b->rank)
        return a->rank < b->rank;
    return a->slot < b->slot;
}

/* Push an entry.  Steals the reference to obj, also on failure. */
static int
heap_push(Heap *h, double ready, long long rank, Py_ssize_t slot, PyObject *obj)
{
    if (h->len == h->cap) {
        Py_ssize_t cap = h->cap ? 2 * h->cap : 64;
        Entry *at = NULL;
        if ((size_t)cap <= PY_SSIZE_T_MAX / sizeof(Entry))
            at = PyMem_Realloc(h->at, cap * sizeof(Entry));
        if (at == NULL) {
            Py_DECREF(obj);
            PyErr_NoMemory();
            return -1;
        }
        h->at = at;
        h->cap = cap;
    }
    Entry e = {ready, rank, slot, obj};
    Py_ssize_t i = h->len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) / 2;
        if (!before(&e, &h->at[parent]))
            break;
        h->at[i] = h->at[parent];
        i = parent;
    }
    h->at[i] = e;
    return 0;
}

/* Pop the first entry; the caller owns its obj. */
static Entry
heap_pop(Heap *h)
{
    Entry top = h->at[0];
    Py_ssize_t n = --h->len, i = 0;
    if (n == 0)
        return top;
    Entry last = h->at[n];
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && before(&h->at[c + 1], &h->at[c]))
            c++;
        if (!before(&h->at[c], &last))
            break;
        h->at[i] = h->at[c];
        i = c;
    }
    h->at[i] = last;
    return top;
}

static void
heap_free(Heap *h)
{
    for (Py_ssize_t i = 0; i < h->len; i++)
        Py_DECREF(h->at[i].obj);
    PyMem_Free(h->at);
}

/* list[i] (borrowed), or NULL with IndexError. */
static inline PyObject *
get(PyObject *list, Py_ssize_t i, const char *name)
{
    if ((size_t)i < (size_t)PyList_GET_SIZE(list))
        return PyList_GET_ITEM(list, i);
    PyErr_Format(PyExc_IndexError, "%s index %zd out of range", name, i);
    return NULL;
}

/* list[i] = obj.  Steals the reference to obj, also on failure. */
static inline int
set(PyObject *list, Py_ssize_t i, PyObject *obj, const char *name)
{
    if ((size_t)i < (size_t)PyList_GET_SIZE(list)) {
        PyObject *old = PyList_GET_ITEM(list, i);
        PyList_SET_ITEM(list, i, obj);
        Py_XDECREF(old);
        return 0;
    }
    Py_DECREF(obj);
    PyErr_Format(PyExc_IndexError, "%s index %zd out of range", name, i);
    return -1;
}

static inline int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* An index; -1 with an exception set on failure. */
static inline Py_ssize_t
as_index(PyObject *o)
{
    if (PyLong_CheckExact(o)) {
        Py_ssize_t i = PyLong_AsSsize_t(o);
        if (i != -1 || !PyErr_Occurred())
            return i;
        PyErr_Clear();
    }
    return PyNumber_AsSsize_t(o, PyExc_IndexError);
}

static PyObject *
sweep(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"heap", "exe", "dev", "rank", "all_outs", "indeg",
                             "slot_ready", "start", "end", "dev_end", "lb", "bound",
                             NULL};
    PyObject *heap, *exe, *dev, *rank, *outs, *indeg, *ready, *start, *end, *dev_end;
    PyObject *lb = Py_None;
    double bound = Py_HUGE_VAL;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!O!O!O!O!O!O!O!O!O!|Od:_sweep", kwlist, &PyList_Type,
            &heap, &PyList_Type, &exe, &PyList_Type, &dev, &PyList_Type, &rank,
            &PyList_Type, &outs, &PyList_Type, &indeg, &PyList_Type, &ready,
            &PyList_Type, &start, &PyList_Type, &end, &PyList_Type, &dev_end, &lb,
            &bound))
        return NULL;
    if (lb != Py_None && !PyList_Check(lb))
        return PyErr_Format(PyExc_TypeError, "lb must be None or a list, not %.200s",
                            Py_TYPE(lb)->tp_name);

    Heap h = {NULL, 0, 0};
    PyObject *result = Py_True;
    /* Owned references of the task being popped, dropped on every exit. */
    PyObject *robj = NULL, *sobj = NULL, *eobj = NULL, *row = NULL;
    PyObject *o;
    double x;

    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(heap); i++) {
        PyObject *t = PyList_GET_ITEM(heap, i);
        if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != 3) {
            PyErr_Format(PyExc_TypeError,
                         "heap entries must be (ready, rank, slot) tuples, not %.200s",
                         Py_TYPE(t)->tp_name);
            goto fail;
        }
        Py_INCREF(t);
        o = PyTuple_GET_ITEM(t, 0);
        Py_INCREF(o);
        long long k = -1;
        Py_ssize_t s = -1;
        int bad = as_double(o, &x) < 0 ||
                  ((k = PyLong_AsLongLong(PyTuple_GET_ITEM(t, 1))) == -1 &&
                   PyErr_Occurred()) ||
                  ((s = as_index(PyTuple_GET_ITEM(t, 2))) == -1 && PyErr_Occurred());
        Py_DECREF(t);
        if (bad) {
            Py_DECREF(o);
            goto fail;
        }
        if (heap_push(&h, x, k, s, o) < 0)
            goto fail;
    }
    if (PyList_SetSlice(heap, 0, PyList_GET_SIZE(heap), NULL) < 0)
        goto fail;

    while (h.len > 0) {
        Entry top = heap_pop(&h);
        robj = top.obj;
        Py_ssize_t slot = top.slot, d;
        double r = top.ready, s, e;

        if (!(o = get(dev, slot, "dev")) || ((d = as_index(o)) == -1 && PyErr_Occurred()))
            goto fail;
        if (!(sobj = get(dev_end, d, "dev_end")))
            goto fail;
        Py_INCREF(sobj);
        if (as_double(sobj, &s) < 0)
            goto fail;
        if (r > s) {
            if (lb != Py_None) {
                if (!(o = get(lb, d, "lb")) || as_double(o, &x) < 0)
                    goto fail;
                double low = x + (r - s);
                if (low > bound) {
                    result = Py_False;
                    goto done;
                }
                if (!(o = PyFloat_FromDouble(low)) || set(lb, d, o, "lb") < 0)
                    goto fail;
            }
            s = r;
            Py_DECREF(sobj);
            sobj = robj;
            robj = NULL;
        }
        else {
            Py_CLEAR(robj);
        }
        if (!(o = get(exe, slot, "exe")) || as_double(o, &x) < 0)
            goto fail;
        e = s + x;
        if (!(eobj = PyFloat_FromDouble(e)))
            goto fail;
        Py_INCREF(eobj);
        if (set(dev_end, d, eobj, "dev_end") < 0)
            goto fail;
        o = sobj;
        sobj = NULL;
        if (set(start, slot, o, "start") < 0)
            goto fail;
        Py_INCREF(eobj);
        if (set(end, slot, eobj, "end") < 0)
            goto fail;

        if (!(o = get(outs, slot, "all_outs")) ||
            !(row = PySequence_Fast(o, "all_outs rows must be sequences")))
            goto fail;
        for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(row); j++) {
            Py_ssize_t nxt = as_index(PySequence_Fast_GET_ITEM(row, j));
            if (nxt == -1 && PyErr_Occurred())
                goto fail;
            if (!(o = get(ready, nxt, "slot_ready")) || as_double(o, &x) < 0)
                goto fail;
            if (e > x) {
                Py_INCREF(eobj);
                if (set(ready, nxt, eobj, "slot_ready") < 0)
                    goto fail;
            }
            if (!(o = get(indeg, nxt, "indeg")))
                goto fail;
            long v = PyLong_AsLong(o);
            if (v == -1 && PyErr_Occurred())
                goto fail;
            if (v == LONG_MIN) {
                PyErr_SetString(PyExc_OverflowError, "indeg entry out of range");
                goto fail;
            }
            v -= 1;
            if (!(o = PyLong_FromLong(v)) || set(indeg, nxt, o, "indeg") < 0)
                goto fail;
            if (v == 0) {
                /* Hold the ready time before anything can replace it. */
                if (!(o = get(ready, nxt, "slot_ready")))
                    goto fail;
                Py_INCREF(o);
                PyObject *k = get(rank, nxt, "rank");
                long long kv = -1;
                if (!k || ((kv = PyLong_AsLongLong(k)) == -1 && PyErr_Occurred()) ||
                    as_double(o, &x) < 0) {
                    Py_DECREF(o);
                    goto fail;
                }
                if (heap_push(&h, x, kv, nxt, o) < 0)
                    goto fail;
            }
        }
        Py_CLEAR(row);
        Py_CLEAR(eobj);
    }
    goto done;

fail:
    result = NULL;
done:
    Py_XDECREF(robj);
    Py_XDECREF(sobj);
    Py_XDECREF(eobj);
    Py_XDECREF(row);
    heap_free(&h);
    Py_XINCREF(result);
    return result;
}

static PyMethodDef methods[] = {
    {"_sweep", (PyCFunction)(void (*)(void))sweep, METH_VARARGS | METH_KEYWORDS,
     "Algorithm 1's heap loop (see repro.sim.full_sim._python_sweep)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_sweep", "Algorithm 1's heap loop, compiled.", -1, methods,
};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
