/* Compiled scalar kernels; twin of _purepy (same API, same algorithms), in C99
 * with <complex.h> and libm. As in the twin, kernels assume admissible input:
 * the guards live in the public wrapper modules. The Stirling and
 * Euler-Maclaurin tables are read from mbzeta._kernel_constants at import. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>
#include <math.h>
#include <stdarg.h>
#include <string.h>

#define PI Py_MATH_PI
#define N_STIRLING 10
#define N_EM 16
#define ASYM_RADIUS 16.0 /* sector where the 10-term Stirling series is used directly */

static double ST[N_STIRLING], EM[N_EM];
static double LOG_PI, HALF_LOG_TWO_PI, LOG_TWO_PI;

/* re + i im, without the NaN real part that re + im * I gives for infinite im */
static double complex cx(double re, double im) {
    union { double parts[2]; double complex z; } u = {{re, im}};
    return u.z;
}

static double complex loggamma_asym(double complex z) {
    /* Stirling series with B_{2k}/(2k(2k-1)) corrections; |z| >= 16, Re z >= 0.5 */
    double complex rz2 = 1.0 / (z * z);
    double complex acc = ST[9];
    for (int k = 8; k >= 0; k--)
        acc = acc * rz2 + ST[k];
    return (z - 0.5) * clog(z) - z + HALF_LOG_TWO_PI + acc / z;
}

static double complex logsinpi(double complex z) {
    /* log sin(pi z) on the branch continuous for Im z >= 0:
       sin(pi z) = e^{-i pi z} (1 - e^{2 i pi z}) / (2i) */
    return cx(-log(2.0), 0.5 * PI) - I * PI * z + clog(1.0 - cexp(2.0 * I * PI * z));
}

static double complex loggamma(double complex z) {
    if (cimag(z) < 0.0)
        return conj(loggamma(conj(z)));
    if (creal(z) < 0.5) {
        double complex r = LOG_PI - logsinpi(z) - loggamma(1.0 - z);
        if (cimag(z) == 0.0 && creal(z) > 0.0)
            r = creal(r); /* Gamma > 0 on (0, 1/2): kill the reflection's rounding residue */
        return r;
    }
    double complex shift = 0.0;
    for (; cabs(z) < ASYM_RADIUS; z += 1.0)
        shift += clog(z);
    return loggamma_asym(z) - shift;
}

static double complex complex_gamma(double complex z) {
    /* reflection keeps the exponent argument in the Stirling half-plane */
    if (creal(z) < 0.5)
        return PI / (csin(PI * z) * cexp(loggamma(1.0 - z)));
    return cexp(loggamma(z));
}

/* sum_{n=0}^{n_terms-1} (n+a)^{-s} plus the Euler-Maclaurin tail at n_terms+a,
 * whose corrections stop at order, or after the first below 2^-53 of the sum */
static double complex zeta_em(double complex s, double a, long n_terms, long order) {
    double complex acc = 0.0;
    for (long n = 0; n < n_terms; n++)
        acc += cexp(-s * log(n + a));
    double x = n_terms + a;
    double complex xs = cexp(-s * log(x));
    acc += xs * x / (s - 1.0) + 0.5 * xs;
    double complex poch = s, pw = xs / x;
    for (long k = 1; k <= order / 2; k++) {
        double complex term = EM[k - 1] * poch * pw;
        acc += term;
        if (cabs(term) < 0x1p-53 * cabs(acc))
            break;
        poch *= (s + (2 * k - 1)) * (s + 2 * k);
        pw /= x * x;
    }
    return acc;
}

/* max(em_min, ceil(em_per_im * |Im s|)) */
static long term_count(double complex s, long em_min, double em_per_im) {
    long n = (long)ceil(em_per_im * fabs(cimag(s)));
    return n < em_min ? em_min : n;
}

static double complex riemann_zeta(double complex s, long em_min, double em_per_im,
                                   long order, double reflect_below) {
    if (s == 0.0)
        return -0.5; /* reflection path would hit the zeta pole */
    if (creal(s) >= reflect_below)
        return zeta_em(s, 1.0, term_count(s, em_min, em_per_im) - 1, order);
    double complex w = 1.0 - s;
    double complex pref = 2.0 * cexp((s - 1.0) * LOG_TWO_PI) * csin(0.5 * PI * s);
    return pref * cexp(loggamma(w)) * riemann_zeta(w, em_min, em_per_im, order, reflect_below);
}

/* Reads the positional arguments into the pointers after fmt, one letter each:
 * 'c' complex, 'd' float, 'l' int, 'o' int used as zeta_em's correction order.
 * Optional trailing arguments keep the defaults the caller preset. */
static int read_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                     Py_ssize_t nmin, const char *fmt, ...) {
    Py_ssize_t nmax = (Py_ssize_t)strlen(fmt);
    if (nargs < nmin || nargs > nmax) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd positional arguments "
                     "but %zd were given", name, nmin, nmax, nargs);
        return -1;
    }
    va_list ap;
    va_start(ap, fmt);
    int bad = 0;
    for (Py_ssize_t i = 0; i < nargs && !bad; i++) {
        if (fmt[i] == 'c') {
            Py_complex v = PyComplex_AsCComplex(args[i]);
            *va_arg(ap, double complex *) = cx(v.real, v.imag);
            bad = v.real == -1.0 && PyErr_Occurred();
        } else if (fmt[i] == 'd') {
            double v = PyFloat_AsDouble(args[i]);
            *va_arg(ap, double *) = v;
            bad = v == -1.0 && PyErr_Occurred();
        } else {
            long v = PyLong_AsLong(args[i]);
            *va_arg(ap, long *) = v;
            bad = v == -1 && PyErr_Occurred();
            if (!bad && fmt[i] == 'o' && v / 2 > N_EM) { /* zeta_em reads EM[v / 2 - 1] */
                PyErr_SetString(PyExc_IndexError, "order beyond the Euler-Maclaurin table");
                bad = 1;
            }
        }
    }
    va_end(ap);
    return bad ? -1 : 0;
}

static PyObject *to_py(double complex v) {
    return PyComplex_FromDoubles(creal(v), cimag(v));
}

#define KERNEL_ARGS PyObject *mod, PyObject *const *args, Py_ssize_t nargs

static PyObject *py_loggamma(KERNEL_ARGS) {
    double complex z;
    return read_args("loggamma", args, nargs, 1, "c", &z) ? NULL : to_py(loggamma(z));
}

static PyObject *py_gamma(KERNEL_ARGS) {
    double complex z;
    return read_args("gamma", args, nargs, 1, "c", &z) ? NULL : to_py(complex_gamma(z));
}

static PyObject *py_zeta_em(KERNEL_ARGS) {
    double complex s;
    double a;
    long n_terms, order;
    return read_args("zeta_em", args, nargs, 4, "cdlo", &s, &a, &n_terms, &order)
           ? NULL : to_py(zeta_em(s, a, n_terms, order));
}

static PyObject *py_riemann_zeta(KERNEL_ARGS) {
    double complex s;
    long em_min = 16, order = 32;
    double em_per_im = 0.5, reflect_below = 0.5;
    return read_args("riemann_zeta", args, nargs, 1, "cldod", &s, &em_min, &em_per_im,
                     &order, &reflect_below)
           ? NULL : to_py(riemann_zeta(s, em_min, em_per_im, order, reflect_below));
}

static PyObject *py_hurwitz_zeta(KERNEL_ARGS) {
    double complex s;
    double a, em_per_im = 0.5;
    long em_min = 16, order = 32;
    return read_args("hurwitz_zeta", args, nargs, 2, "cdldo", &s, &a, &em_min,
                     &em_per_im, &order)
           ? NULL : to_py(zeta_em(s, a, term_count(s, em_min, em_per_im), order));
}

static PyObject *py_integrand(KERNEL_ARGS) {
    long tag, em_min = 16, order = 32;
    double complex s, z;
    double p, em_per_im = 0.5, reflect_below = 0.5;
    if (read_args("integrand", args, nargs, 4, "lcdcldod", &tag, &s, &p, &z, &em_min,
                  &em_per_im, &order, &reflect_below))
        return NULL;
    /* gamma and power factors share one exponent: their over/underflows cancel */
    double complex expo = loggamma(z) + loggamma(s - z);
    if (tag == 0)
        return to_py(cexp(expo - z * log(p)));
    if (tag == 1)
        return to_py(riemann_zeta(z, em_min, em_per_im, order, reflect_below)
                     * riemann_zeta(s - z, em_min, em_per_im, order, reflect_below)
                     * cexp(expo));
    if (tag == 2)
        return to_py(riemann_zeta(z, em_min, em_per_im, order, reflect_below)
                     * cexp(expo + (z - s) * log(p - 1.0)));
    return PyErr_Format(PyExc_ValueError, "unknown integrand tag %ld", tag);
}

/* the docstring's first line gives inspect.signature the twin's signature */
#define METHOD(name, sig, doc) {#name, (PyCFunction)(void (*)(void))py_##name, \
    METH_FASTCALL, #name "($module, " sig ", /)\n--\n\n" doc}

static PyMethodDef methods[] = {
    METHOD(loggamma, "z", "Principal-lift log Gamma (real on the positive real axis)."),
    METHOD(gamma, "z", "Gamma(z), by reflection for Re z < 1/2."),
    METHOD(zeta_em, "s, a, n_terms, order", "sum_{n<n_terms} (n+a)^{-s} plus the EM tail."),
    METHOD(riemann_zeta, "s, em_min=16, em_per_im=0.5, order=32, reflect_below=0.5",
           "Riemann zeta; the functional equation below Re s = reflect_below."),
    METHOD(hurwitz_zeta, "s, a, em_min=16, em_per_im=0.5, order=32",
           "Hurwitz zeta sum_{n>=0} (n+a)^{-s} by Euler-Maclaurin."),
    METHOD(integrand, "tag, s, p, z, em_min=16, em_per_im=0.5, order=32, reflect_below=0.5",
           "Meromorphic line integrands; see the pure-Python twin for the catalog."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "mbzeta._core",
    .m_doc = "Compiled scalar kernels; twin of _purepy (same API, same algorithms).",
    .m_size = -1,
    .m_methods = methods,
};

static int fill_table(PyObject *consts, const char *name, double *out, Py_ssize_t n) {
    PyObject *seq = PyObject_GetAttrString(consts, name);
    int bad = seq == NULL;
    for (Py_ssize_t i = 0; i < n && !bad; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        out[i] = item == NULL ? -1.0 : PyFloat_AsDouble(item);
        Py_XDECREF(item);
        bad = out[i] == -1.0 && PyErr_Occurred();
    }
    Py_XDECREF(seq);
    return bad ? -1 : 0;
}

PyMODINIT_FUNC PyInit__core(void) {
    PyObject *consts = PyImport_ImportModule("mbzeta._kernel_constants");
    if (consts == NULL)
        return NULL;
    int bad = fill_table(consts, "STIRLING_COEFFS", ST, N_STIRLING) < 0
              || fill_table(consts, "EM_COEFFS", EM, N_EM) < 0;
    Py_DECREF(consts);
    if (bad)
        return NULL;
    LOG_PI = log(PI);
    HALF_LOG_TWO_PI = 0.5 * log(2.0 * PI);
    LOG_TWO_PI = log(2.0 * PI);
    PyObject *m = PyModule_Create(&module);
    if (m == NULL || PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0
        || PyModule_AddIntConstant(m, "TAG_GAMMA_POWER", 0) < 0
        || PyModule_AddIntConstant(m, "TAG_ZETA_ZETA_GAMMA", 1) < 0
        || PyModule_AddIntConstant(m, "TAG_ZETA_GAMMA_POWER", 2) < 0) {
        Py_XDECREF(m);
        return NULL;
    }
    return m;
}
