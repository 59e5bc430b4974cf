"""Machine-speed samples, to take the host's speed changes out of timings.

On a host of a few shared vCPUs the speed of the same Python code drifts by
tens of percent within seconds, and process CPU time drifts with it, so raw
times of identical runs spread wider than any useful bound.  A ``Sampler``
installed in a process interrupts it every ``PERIOD_S`` (SIGALRM) and times
``kernel``, a fixed piece of pure-Python integer, tuple and dict work,
which slows and speeds up with the host much as the measured code does.  Its
data fit in a core's first-level caches.  A kernel whose data outgrow the
caches tracked the host's slow-downs more closely, but its speed then
depends on how much of its data the measured program evicts, so a change to
the program's memory use would move the scale itself.

``scaled`` converts a measured interval to reference seconds: the interval,
less the time the samples themselves took, times ``REF_S`` over the
harmonic mean of the kernel times sampled in it.  If the host runs at one
speed throughout, that is the interval's length at the speed where one
kernel takes ``REF_S``; if its speed changes, each stretch between samples
is weighted by the speed measured in it.

Set-up is mostly imports, whose speed follows the host's less closely than
``kernel``'s does, and it is too short for more than a few timer samples.
``setup_scaled`` therefore scales it by ``BURST`` runs, just after it, of
``import_kernel``, which unmarshals and runs a fixed module body as an
import does.

``REF_S`` and ``IMPORT_REF_S`` are round figures near the kernels' times on
the 2-vCPU Xeon host the baseline was recorded on, so scaled and raw times
there are of the same size.  A change to the program moves the scaled time
as it moves the raw one.  The kernels use nothing from ``qbases`` and
import nothing, so set-up times keep every import.
"""

import marshal
import signal
import time
from math import gcd

PERIOD_S = 0.025         # one sample every this long (wall clock)
REF_S = 0.5e-3           # a kernel run at the reference speed
IMPORT_REF_S = 0.3e-3    # an import_kernel run at the reference speed
BURST = 32               # import_kernel runs after a set-up

_MODULE_SOURCE = "\n".join(
    [f"def f{i}(a, b={i}):\n    return {{'v': [a, b, 'k{i}'], 'n': {i}}}\n"
     for i in range(60)]
    + [f"class C{i}:\n    z = {i}\n\n    def m(self, q):\n"
       f"        return q + {i}\n" for i in range(15)]
    + ["T = tuple(range(200))\nD = {i: str(i) for i in range(200)}\n"])
_module_code = []


def kernel():
    """A fixed piece of work: add up 599 fractions (i%13+1)/(i%11+2) in
    lowest terms with integer gcd, keeping tuples in a dict."""
    table = {}
    num, den = 0, 1
    for i in range(1, 600):
        a, b = i % 13 + 1, i % 11 + 2
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        table[(i % 17, i % 5)] = (num * num, den * den)
    return len(table), num, den


def import_kernel():
    """Unmarshal and run a fixed module of 60 functions and 15 classes."""
    if not _module_code:
        _module_code.append(marshal.dumps(compile(_MODULE_SOURCE, "<speed>",
                                                  "exec")))
    namespace = {}
    exec(marshal.loads(_module_code[0]), namespace)
    return len(namespace)


def _harmonic_factor(ref, ds):
    return ref * sum(1.0 / d for d in ds) / len(ds)


class Sampler:
    """Kernel timings ``(start, seconds)`` taken by a timer, and the time
    spent in ``setup_scaled``'s bursts."""

    def __init__(self):
        self.samples = []
        self.burst_s = 0.0
        self._sampling = False

    def sample(self, *_):
        if self._sampling:  # the timer fired again within a sample
            return
        self._sampling = True
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self):
        """Seconds the samples and bursts took."""
        return self.burst_s + sum(d for _, d in self.samples)

    def factor(self, t0=None, t1=None):
        """``REF_S`` over the harmonic mean of the kernel times that started
        in ``[t0, t1)`` (all samples by default); with none there, the
        samples nearest the window on either side."""
        lo = float("-inf") if t0 is None else t0
        hi = float("inf") if t1 is None else t1
        ds = [d for t, d in self.samples if lo <= t < hi]
        if not ds:
            before = [s for s in self.samples if s[0] < lo]
            after = [s for s in self.samples if s[0] >= hi]
            ds = [s[1] for s in before[-1:] + after[:1]]
        return _harmonic_factor(REF_S, ds) if ds else 1.0

    def scaled(self, t0, t1):
        """Reference seconds of ``[t0, t1)``, less the samples taken in
        it."""
        spent = sum(d for t, d in self.samples if t0 <= t < t1)
        return (t1 - t0 - spent) * self.factor(t0, t1)

    def setup_scaled(self, t0):
        """Reference seconds of a set-up from ``t0`` to now, less the
        samples taken in it, scaled by ``BURST`` runs of ``import_kernel``
        taken now."""
        t1 = time.perf_counter()
        spent = sum(d for t, d in self.samples if t0 <= t < t1)
        ds = []
        for _ in range(BURST):
            t = time.perf_counter()
            import_kernel()
            ds.append(time.perf_counter() - t)
        self.burst_s += time.perf_counter() - t1
        return (t1 - t0 - spent) * _harmonic_factor(IMPORT_REF_S, ds)
