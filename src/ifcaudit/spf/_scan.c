/* Compiled record scanner for the DATA section.
 *
 * Twin of ``_scan_py.scan_records``: one pass over the bytes that accepts the
 * same grammar, returns the same records and, at every failure, raises the
 * same exception with the same reason and offset. Wherever the pure scanner
 * tries its patterns one after another, this file tests the same conditions
 * in the same order; the notes below name the pattern each step stands for.
 *
 * Ids and references become ints only after their record has matched, as in
 * the pure scanner, so a digit string too long for int() is a ValueError
 * exactly where ``int()`` raises one there.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef const unsigned char *Buf;

/* Digit strings up to this length fit a long long; longer ones go through
 * int(), whose length limit is never below 640 digits. */
#define SHORT_DIGITS 18

static PyObject *MalformedFile; /* ifcaudit.errors.MalformedFile */

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

/* int(s[a:b]) for a string of ASCII digits. */
static PyObject *to_int(Buf s, Py_ssize_t a, Py_ssize_t b)
{
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
    return value;
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
 * and returns the offset of the ')' that closes it, or -1 with an error set.
 *
 * The references met on the way (_REFERENCES: '#' and digits outside
 * strings, binaries and comments) go into refs. With deferred set, a
 * reference longer than SHORT_DIGITS only sets *deferred: its record has not
 * matched yet, so it must not reach int(). */
static Py_ssize_t close_parameters(Buf s, Py_ssize_t i, Py_ssize_t n, PyObject *refs, int *deferred)
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
        case '#':
            while (end < n && is_digit(s[end]))
                end++;
            if (end == i + 1)
                break;
            if (end - i - 1 > SHORT_DIGITS && deferred != NULL) {
                *deferred = 1;
                break;
            }
            PyObject *ref = to_int(s, i + 1, end);
            if (ref == NULL)
                return -1;
            int status = PySet_Add(refs, ref);
            Py_DECREF(ref);
            if (status < 0)
                return -1;
            break;
        }
        if (end < 0)
            return malformed("unterminated parameter list", i);
        i = end;
    }
    return malformed("unterminated parameter list", i);
}

/* The type name s[a:b], upper-cased: a new reference to the one object in
 * names that holds this name, added there when the scan meets it first. */
static PyObject *type_name(Buf s, Py_ssize_t a, Py_ssize_t b, PyObject *names)
{
    PyObject *name = PyUnicode_New(b - a, 127);
    if (name == NULL)
        return NULL;
    Py_UCS1 *out = PyUnicode_1BYTE_DATA(name);
    for (; a < b; a++)
        *out++ = (s[a] >= 'a' && s[a] <= 'z') ? s[a] - ('a' - 'A') : s[a];
    PyObject *shared = PyDict_SetDefault(names, name, name);
    Py_XINCREF(shared);
    Py_DECREF(name);
    return shared;
}

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
    PyObject *id = to_int(s, at + 1, id_end);
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
static Py_ssize_t read_record(Buf s, Py_ssize_t at, Py_ssize_t n, PyObject *records, PyObject *refs,
                              PyObject *names, PyObject *diagnostics)
{
    Py_ssize_t i = at + 1, id_end, name_start, name_end, pstart, pend;
    int deferred = 0;
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
    pend = close_parameters(s, pstart, n, refs, &deferred);
    if (pend < 0)
        return -1;
    i = skip_ws(s, pend + 1, n);
    if (i >= n || s[i] != ';')
        return malformed("missing record terminator ';'", pend + 1);

    PyObject *record = PyTuple_New(4);
    if (record == NULL)
        return -1;
    PyTuple_SET_ITEM(record, 0, to_int(s, at + 1, id_end));
    if (PyTuple_GET_ITEM(record, 0) != NULL) {
        PyTuple_SET_ITEM(record, 1, type_name(s, name_start, name_end, names));
        PyTuple_SET_ITEM(record, 2, PyLong_FromSsize_t(pstart));
        PyTuple_SET_ITEM(record, 3, PyLong_FromSsize_t(pend));
    }
    for (int k = 0; k < 4; k++) {
        if (PyTuple_GET_ITEM(record, k) == NULL) {
            Py_DECREF(record);
            return -1;
        }
    }
    if (append_new(records, record) < 0)
        return -1;
    /* walk again to read the long references now that the record matched */
    if (deferred && close_parameters(s, pstart, n, refs, NULL) < 0)
        return -1;
    return i + 1;
}

static PyObject *scan_records(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *data, *records, *refs, *names, *diagnostics, *result = NULL;
    Py_ssize_t start;
    if (!PyArg_ParseTuple(args, "Sn:scan_records", &data, &start))
        return NULL;
    Buf s = (Buf)PyBytes_AS_STRING(data);
    Py_ssize_t n = PyBytes_GET_SIZE(data);
    Py_ssize_t i = start < 0 ? 0 : (start > n ? n : start);

    records = PyList_New(0);
    refs = PySet_New(NULL);
    names = PyDict_New();
    diagnostics = PyList_New(0);
    while (records != NULL && refs != NULL && names != NULL && diagnostics != NULL) {
        i = skip_trivia(s, i, n);
        if (i < n && s[i] == '#') {
            i = read_record(s, i, n, records, refs, names, diagnostics);
            if (i < 0)
                break;
            continue;
        }
        if (n - i >= 6 && memcmp(s + i, "ENDSEC", 6) == 0) { /* _ENDSEC */
            Py_ssize_t end = skip_trivia(s, i + 6, n);
            if (end < n && s[end] == ';') {
                result = Py_BuildValue("(OOOn)", records, refs, diagnostics, end + 1);
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
    Py_XDECREF(records);
    Py_XDECREF(refs);
    Py_XDECREF(names);
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
    PyObject *errors = PyImport_ImportModule("ifcaudit.errors");
    if (errors == NULL)
        return NULL;
    Py_XDECREF(MalformedFile);
    MalformedFile = PyObject_GetAttrString(errors, "MalformedFile");
    Py_DECREF(errors);
    if (MalformedFile == NULL)
        return NULL;
    return PyModule_Create(&module);
}
