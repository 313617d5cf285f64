/* Compiled record scanner for the DATA section.
 *
 * Twin of ``_scan_py.scan_records``: one pass over the bytes that accepts the
 * same grammar, returns the same record table and references and, at every
 * failure, raises the same exception with the same reason and offset.
 * Wherever the pure scanner tries its patterns one after another, this file
 * tests the same conditions in the same order; the notes below name the
 * pattern each step stands for.
 *
 * Ids become ints only after their record has matched, as in the pure
 * scanner, so an id too long for int() fails with the same reason and
 * offset. Neither scanner reads references: ``model.References`` does.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef const unsigned char *Buf;

/* Digit strings up to this length fit a long long; longer ones go through
 * int(), whose length limit is never below 640 digits. */
#define SHORT_DIGITS 18

static PyObject *MalformedFile; /* ifcaudit.errors.MalformedFile */
static PyObject *RecordTable;   /* ifcaudit.spf.model.RecordTable, found on the first scan */
static PyObject *References;    /* ifcaudit.spf.model.References, likewise */
static PyObject *Array;         /* array.array */

/* getattr(import_module(module), name), or NULL with an error set. */
static PyObject *imported(const char *module, const char *name)
{
    PyObject *found = PyImport_ImportModule(module);
    if (found == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(found, name);
    Py_DECREF(found);
    return value;
}

static int is_ws(unsigned char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
static int is_digit(unsigned char c) { return c >= '0' && c <= '9'; }
static int is_kw_start(unsigned char c)
{
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_';
}
static int is_comment(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    return s[i] == '/' && i + 1 < n && s[i + 1] == '*';
}

/* Raises MalformedFile(reason, offset), taking over the reference to reason
 * (NULL when building it failed); returns -1. */
static Py_ssize_t fail(PyObject *reason, Py_ssize_t offset)
{
    if (reason != NULL) {
        PyObject *exc = PyObject_CallFunction(MalformedFile, "On", reason, offset);
        Py_DECREF(reason);
        if (exc != NULL) {
            PyErr_SetObject(MalformedFile, exc);
            Py_DECREF(exc);
        }
    }
    return -1;
}

static Py_ssize_t malformed(const char *reason, Py_ssize_t offset)
{
    return fail(PyUnicode_FromString(reason), offset);
}

static Py_ssize_t unparseable(Buf s, Py_ssize_t at, Py_ssize_t n)
{
    PyObject *snippet = PyBytes_FromStringAndSize((const char *)s + at, n - at < 30 ? n - at : 30);
    if (snippet == NULL)
        return -1;
    PyObject *reason = PyUnicode_FromFormat("unparseable content in DATA section: %R", snippet);
    Py_DECREF(snippet);
    return fail(reason, at);
}

/* Appends item to list and drops the caller's reference (NULL: an error is
 * already set); returns -1 on failure. */
static int append_new(PyObject *list, PyObject *item)
{
    if (item == NULL)
        return -1;
    int status = PyList_Append(list, item);
    Py_DECREF(item);
    return status;
}

/* int(s[at + 1:b]), the digits of an id whose '#' is at offset at; an id
 * too long for int() is malformed there. */
static PyObject *read_id(Buf s, Py_ssize_t at, Py_ssize_t b)
{
    Py_ssize_t a = at + 1;
    if (b - a <= SHORT_DIGITS) {
        long long value = 0;
        for (; a < b; a++)
            value = value * 10 + (s[a] - '0');
        return PyLong_FromLongLong(value);
    }
    PyObject *digits = PyBytes_FromStringAndSize((const char *)s + a, b - a);
    if (digits == NULL)
        return NULL;
    PyObject *value = PyNumber_Long(digits);
    Py_DECREF(digits);
    if (value == NULL && PyErr_ExceptionMatches(PyExc_ValueError)) {
        PyErr_Clear();
        malformed("instance id too long to read", at);
    }
    return value;
}

/* A column of fixed-size numbers: an array.array filled through a buffer,
 * which its frombytes() empties when full. */
typedef struct {
    PyObject *values;
    size_t used;
    char buf[1 << 14];
} Column;

static int column_init(Column *c, const char *typecode)
{
    c->used = 0;
    c->values = PyObject_CallFunction(Array, "s", typecode);
    return c->values == NULL ? -1 : 0;
}

static int column_flush(Column *c)
{
    if (c->used == 0)
        return 0;
    PyObject *done = PyObject_CallMethod(c->values, "frombytes", "y#", c->buf, (Py_ssize_t)c->used);
    c->used = 0;
    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

static int column_push(Column *c, const void *item, size_t size)
{
    if (c->used + size > sizeof c->buf && column_flush(c) < 0)
        return -1;
    memcpy(c->buf + c->used, item, size);
    c->used += size;
    return 0;
}

/* Each skip_* takes the offset of a lexeme's first byte and returns the
 * offset just past the lexeme, or -1 when the data ends inside it. */

/* lexemes.STRING: a quote not followed by another ends it, '' is a quote inside. */
static Py_ssize_t skip_string(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    for (i++; i < n; i++) {
        if (s[i] == '\'') {
            if (i + 1 < n && s[i + 1] == '\'')
                i++;
            else
                return i + 1;
        }
    }
    return -1;
}

/* lexemes.BINARY: runs to the next double quote. */
static Py_ssize_t skip_binary(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    const unsigned char *end = memchr(s + i + 1, '"', n - i - 1);
    return end == NULL ? -1 : end - s + 1;
}

/* lexemes.COMMENT: runs to the first star-slash after the opening slash-star. */
static Py_ssize_t skip_comment(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    for (i += 2; i + 1 < n; i++) {
        if (s[i] == '*' && s[i + 1] == '/')
            return i + 2;
    }
    return -1;
}

static Py_ssize_t skip_ws(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    while (i < n && is_ws(s[i]))
        i++;
    return i;
}

/* lexemes.TRIVIA: blanks and whole comments; stops before an unterminated one. */
static Py_ssize_t skip_trivia(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    while (i < n) {
        if (is_ws(s[i])) {
            i++;
        } else if (is_comment(s, i, n)) {
            Py_ssize_t end = skip_comment(s, i, n);
            if (end < 0)
                break;
            i = end;
        } else {
            break;
        }
    }
    return i;
}

/* _close_parameters: walks a record's parameters from i, just past its '(',
 * and returns the offset of the ')' that closes it, or -1 with an error set. */
static Py_ssize_t close_parameters(Buf s, Py_ssize_t i, Py_ssize_t n)
{
    int depth = 1;
    while (i < n) {
        Py_ssize_t end = i + 1;
        switch (s[i]) {
        case '(':
            depth++;
            break;
        case ')':
            if (--depth == 0)
                return i;
            break;
        case ';':
            return malformed("unterminated parameter list", i);
        case '\'':
            end = skip_string(s, i, n);
            break;
        case '"':
            end = skip_binary(s, i, n);
            break;
        case '/':
            if (is_comment(s, i, n))
                end = skip_comment(s, i, n);
            break;
        }
        if (end < 0)
            return malformed("unterminated parameter list", i);
        i = end;
    }
    return malformed("unterminated parameter list", i);
}

/* The code of the type name s[a:b], upper-cased: its index in names, which
 * holds each name once and gains it when the scan meets it first; codes maps
 * each name to its code. Returns -1 with an error set on failure. */
static Py_ssize_t type_code(Buf s, Py_ssize_t a, Py_ssize_t b, PyObject *codes, PyObject *names)
{
    PyObject *name = PyUnicode_New(b - a, 127);
    if (name == NULL)
        return -1;
    Py_UCS1 *out = PyUnicode_1BYTE_DATA(name);
    for (; a < b; a++)
        *out++ = (s[a] >= 'a' && s[a] <= 'z') ? s[a] - ('a' - 'A') : s[a];
    Py_ssize_t code = -1;
    PyObject *known = PyDict_GetItemWithError(codes, name);
    if (known != NULL) {
        code = PyLong_AsSsize_t(known);
    } else if (!PyErr_Occurred()) {
        PyObject *new_code = PyLong_FromSsize_t(PyList_GET_SIZE(names));
        if (new_code != NULL && PyDict_SetItem(codes, name, new_code) == 0
            && PyList_Append(names, name) == 0)
            code = PyList_GET_SIZE(names) - 1;
        Py_XDECREF(new_code);
    }
    Py_DECREF(name);
    return code;
}

/* The columns of the record table being filled. */
typedef struct {
    PyObject *ids, *names, *codes_of; /* list of ints, list of names, name -> code */
    Column codes, starts, ends;
} Table;

/* _COMPLEX from just past its '(' (inner ')' and '"' are plain bytes here):
 * records the diagnostic and returns the offset past the ';', or -1. */
static Py_ssize_t read_complex(Buf s, Py_ssize_t at, Py_ssize_t id_end, Py_ssize_t i, Py_ssize_t n,
                               PyObject *diagnostics)
{
    while (i < n && s[i] != ';') {
        Py_ssize_t end = i + 1;
        if (s[i] == '\'')
            end = skip_string(s, i, n);
        else if (is_comment(s, i, n))
            end = skip_comment(s, i, n);
        if (end < 0)
            return unparseable(s, at, n);
        i = end;
    }
    if (i >= n)
        return unparseable(s, at, n);
    PyObject *id = read_id(s, at, id_end);
    if (id == NULL)
        return -1;
    PyObject *message = PyUnicode_FromFormat("unsupported complex entity instance #%S skipped", id);
    Py_DECREF(id);
    if (message == NULL)
        return -1;
    if (append_new(diagnostics, Py_BuildValue("(sN)", "complex-instance", message)) < 0)
        return -1;
    return i + 1;
}

/* One record from its '#' at offset at (a match of _RUN, or _HEAD and the
 * walk, or _COMPLEX); returns the offset past its ';', or -1 with an error
 * set. */
static Py_ssize_t read_record(Buf s, Py_ssize_t at, Py_ssize_t n, Table *t, PyObject *diagnostics)
{
    Py_ssize_t i = at + 1, id_end, name_start, name_end;
    long long pstart, pend;
    while (i < n && is_digit(s[i]))
        i++;
    id_end = i;
    i = skip_ws(s, i, n);
    if (id_end == at + 1 || i >= n || s[i] != '=')
        return unparseable(s, at, n);
    i = skip_ws(s, i + 1, n);
    if (i < n && s[i] == '(')
        return read_complex(s, at, id_end, i + 1, n, diagnostics);
    if (i >= n || !is_kw_start(s[i]))
        return unparseable(s, at, n);
    name_start = i;
    while (i < n && (is_kw_start(s[i]) || is_digit(s[i])))
        i++;
    name_end = i;
    i = skip_ws(s, i, n);
    if (i >= n || s[i] != '(')
        return unparseable(s, at, n);
    pstart = i + 1;
    pend = close_parameters(s, pstart, n);
    if (pend < 0)
        return -1;
    i = skip_ws(s, pend + 1, n);
    if (i >= n || s[i] != ';')
        return malformed("missing record terminator ';'", pend + 1);

    if (append_new(t->ids, read_id(s, at, id_end)) < 0)
        return -1;
    Py_ssize_t code = type_code(s, name_start, name_end, t->codes_of, t->names);
    unsigned int type = (unsigned int)code;
    if (code < 0 || column_push(&t->codes, &type, sizeof type) < 0
        || column_push(&t->starts, &pstart, sizeof pstart) < 0
        || column_push(&t->ends, &pend, sizeof pend) < 0)
        return -1;
    return i + 1;
}

static PyObject *scan_records(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *data, *diagnostics, *result = NULL;
    Py_ssize_t start;
    if (!PyArg_ParseTuple(args, "Sn:scan_records", &data, &start))
        return NULL;
    /* not imported with this module, which ifcaudit.spf imports as it loads */
    if (RecordTable == NULL && (RecordTable = imported("ifcaudit.spf.model", "RecordTable")) == NULL)
        return NULL;
    if (References == NULL && (References = imported("ifcaudit.spf.model", "References")) == NULL)
        return NULL;
    Buf s = (Buf)PyBytes_AS_STRING(data);
    Py_ssize_t n = PyBytes_GET_SIZE(data);
    Py_ssize_t i = start < 0 ? 0 : (start > n ? n : start);

    Table *t = PyMem_Calloc(1, sizeof *t); /* three buffers: too large for the stack */
    if (t == NULL)
        return PyErr_NoMemory();
    t->ids = PyList_New(0);
    t->names = PyList_New(0);
    t->codes_of = PyDict_New();
    diagnostics = PyList_New(0);
    int ready = t->ids != NULL && t->names != NULL && t->codes_of != NULL && diagnostics != NULL
                && column_init(&t->codes, "I") == 0 && column_init(&t->starts, "q") == 0
                && column_init(&t->ends, "q") == 0;
    while (ready) {
        i = skip_trivia(s, i, n);
        if (i < n && s[i] == '#') {
            i = read_record(s, i, n, t, diagnostics);
            if (i < 0)
                break;
            continue;
        }
        if (n - i >= 6 && memcmp(s + i, "ENDSEC", 6) == 0) { /* _ENDSEC */
            Py_ssize_t end = skip_trivia(s, i + 6, n);
            if (end < n && s[end] == ';') {
                if (column_flush(&t->codes) < 0 || column_flush(&t->starts) < 0
                    || column_flush(&t->ends) < 0)
                    break;
                PyObject *table = PyObject_CallFunctionObjArgs(
                    RecordTable, t->ids, t->codes.values, t->names, t->starts.values,
                    t->ends.values, NULL);
                PyObject *refs = table == NULL ? NULL
                                 : PyObject_CallFunctionObjArgs(References, data, table, NULL);
                if (refs != NULL)
                    result = Py_BuildValue("(ONOn)", table, refs, diagnostics, end + 1);
                Py_XDECREF(table);
                break;
            }
        }
        if (i >= n)
            malformed("missing ENDSEC", i);
        else if (is_comment(s, i, n))
            malformed("unterminated comment", i);
        else
            unparseable(s, i, n);
        break;
    }
    Py_XDECREF(t->ids);
    Py_XDECREF(t->names);
    Py_XDECREF(t->codes_of);
    Py_XDECREF(t->codes.values);
    Py_XDECREF(t->starts.values);
    Py_XDECREF(t->ends.values);
    PyMem_Free(t);
    Py_XDECREF(diagnostics);
    return result;
}

static PyMethodDef methods[] = {
    {"scan_records", scan_records, METH_VARARGS, "See ``ifcaudit.spf._scan_py.scan_records``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ifcaudit.spf._scan",
    .m_doc = "Compiled record scanner for the DATA section.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__scan(void)
{
    Py_XDECREF(MalformedFile);
    Py_XDECREF(Array);
    MalformedFile = imported("ifcaudit.errors", "MalformedFile");
    Array = imported("array", "array");
    if (MalformedFile == NULL || Array == NULL)
        return NULL;
    return PyModule_Create(&module);
}
