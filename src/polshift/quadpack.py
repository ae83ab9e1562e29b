"""QUADPACK's DQAGSE and DQAGIE, with both panels of a bisection in one
array call of the integrand.

A transcription of the adaptive integrators of QUADPACK (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, Springer 1983): DQAGSE on a
finite [a, b] with 21-point Gauss-Kronrod panels (DQK21), and DQAGIE on
[bound, inf) only, with 15-point panels (DQK15I) in t of x = bound +
(1 - t)/t, together with their helpers DQPSRT (the ordered list of error
estimates) and DQELG (Wynn's epsilon algorithm).  Every floating-point
operation is QUADPACK's, in its order and with its constants, so on the same
integrand values the result, the error estimate and every subdivision
decision are those of ``scipy.integrate.quad``, which runs the same
routines; tests/test_quadpack.py checks that bit for bit.

The one departure is how the integrand is called.  f takes a float64 array
of abscissae and returns the float64 array of its values at them, each the
value a scalar call would give.  The first panel is one call (21 or 15
nodes), and each bisection evaluates both new panels in one call (42 or 30
nodes).  A panel's sums then run over Python floats, term by term in
QUADPACK's sequence.

The routine keeps 1-based lists, as the Fortran does, so that the indices
read as in the original.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

EPMACH = sys.float_info.epsilon   # d1mach(4)
UFLOW = sys.float_info.min        # d1mach(1)
OFLOW = sys.float_info.max        # d1mach(2)

# DQK21: abscissae xgk(1..10) of the 21-point Kronrod rule (xgk(11) = 0 is
# the centre), its weights wgk(1..11), and the 10-point Gauss weights wg(1..5)
# of the even-numbered abscissae xgk(2), xgk(4), ..., xgk(10)
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980223551, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

# DQK15I: abscissae xgk(1..7) (xgk(8) = 0), Kronrod weights wgk(1..8) and
# 7-point Gauss weights wg(1..8), which are zero at the odd-numbered xgk
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG15 = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327)


class QuadResult(NamedTuple):
    """What DQAGSE or DQAGIE returns: the integral, its error estimate,
    the number of integrand values, the error code ier (0 to 6, with
    QUADPACK's meanings) and the number of subintervals."""

    value: float
    abserr: float
    neval: int
    ier: int
    last: int


def quad(f, a, b, epsabs, epsrel, limit):
    """Integral of f over [a, b], a finite and b finite (DQAGSE) or inf
    (DQAGIE), to max(epsabs, epsrel |integral|) within limit subintervals.

    f takes a float64 array of abscissae and returns their values.  The
    arguments are those of ``scipy.integrate.quad`` with its default points
    and weight, and on the same integrand values the QuadResult holds its
    (y, abserr) and its infodict's neval and last, bit for bit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if b == math.inf:
        return _adaptive(_qk15i, f, a, 0.0, 1.0, epsabs, epsrel, limit)
    return _adaptive(_qk21, f, 0.0, a, b, epsabs, epsrel, limit)


# --- the rules ---------------------------------------------------------------

def _finish(resk, resg, resabs, resasc, hlgth, dhlgth):
    """The common tail of DQK21 and DQK15I: (result, abserr, resabs,
    resasc) of one panel from its raw sums."""
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio**1.5) is 1 for ratio >= 1, where the power may
        # overflow, which a Python float raises on
        abserr = resasc * (1.0 if ratio >= 1.0 else min(1.0, ratio**1.5))
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _panel_nodes(panels, xgk):
    """The abscissae of each (a, b) of panels in one list, panel by panel
    (centr, then centr - hlgth xgk(j) for every j, then centr + hlgth
    xgk(j)), and the list of each panel's hlgth."""
    nodes, halves = [], []
    for a, b in panels:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        absc = [hlgth * x for x in xgk]
        nodes.append(centr)
        nodes.extend([centr - x for x in absc])
        nodes.extend([centr + x for x in absc])
        halves.append(hlgth)
    return nodes, halves


def _qk21(f, _boun, panels):
    """DQK21 on each (a, b) of panels, all nodes in one call of f."""
    nodes, halves = _panel_nodes(panels, _XGK21)
    values = f(np.array(nodes)).tolist()
    out = []
    for p, hlgth in enumerate(halves):
        fc = values[21 * p]
        fv1 = values[21 * p + 1:21 * p + 11]
        fv2 = values[21 * p + 11:21 * p + 21]
        resg = 0.0
        resk = _WGK21[10] * fc
        resabs = abs(resk)
        for j in range(5):
            jtw = 2 * j + 1
            fsum = fv1[jtw] + fv2[jtw]
            resg = resg + _WG10[j] * fsum
            resk = resk + _WGK21[jtw] * fsum
            resabs = resabs + _WGK21[jtw] * (abs(fv1[jtw]) + abs(fv2[jtw]))
        for j in range(5):
            jtwm1 = 2 * j
            fsum = fv1[jtwm1] + fv2[jtwm1]
            resk = resk + _WGK21[jtwm1] * fsum
            resabs = resabs + _WGK21[jtwm1] * (abs(fv1[jtwm1])
                                               + abs(fv2[jtwm1]))
        reskh = resk * 0.5
        resasc = _WGK21[10] * abs(fc - reskh)
        for w, f1, f2 in zip(_WGK21, fv1, fv2):
            resasc = resasc + w * (abs(f1 - reskh) + abs(f2 - reskh))
        out.append(_finish(resk, resg, resabs, resasc, hlgth, abs(hlgth)))
    return out


def _qk15i(f, boun, panels):
    """DQK15I (inf = 1) on each (a, b) of panels in t, all nodes in one
    call of f at x = boun + (1 - t)/t."""
    nodes, halves = _panel_nodes(panels, _XGK15)
    t = np.array(nodes)
    # dinf * (1 - t) is 1 - t exactly for dinf = 1
    values = (f(boun + (1.0 - t) / t) / t / t).tolist()
    out = []
    for p, hlgth in enumerate(halves):
        fc = values[15 * p]
        fv1 = values[15 * p + 1:15 * p + 8]
        fv2 = values[15 * p + 8:15 * p + 15]
        resg = _WG15[7] * fc
        resk = _WGK15[7] * fc
        resabs = abs(resk)
        for wg, wgk, f1, f2 in zip(_WG15, _WGK15, fv1, fv2):
            fsum = f1 + f2
            resg = resg + wg * fsum
            resk = resk + wgk * fsum
            resabs = resabs + wgk * (abs(f1) + abs(f2))
        reskh = resk * 0.5
        resasc = _WGK15[7] * abs(fc - reskh)
        for wgk, f1, f2 in zip(_WGK15, fv1, fv2):
            resasc = resasc + wgk * (abs(f1 - reskh) + abs(f2 - reskh))
        out.append(_finish(resk, resg, resabs, resasc, hlgth, hlgth))
    return out


# --- DQPSRT and DQELG --------------------------------------------------------

def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord(1..) in descending order of elist after the
    bisection of interval maxerr, and return (maxerr, errmax, nrmax) of
    the interval to bisect next.  iord is updated in place."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """DQELG: the epsilon algorithm on epstab(1..n), which it updates in
    place with res3la(1..3).  Returns (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 equal to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


# --- DQAGSE / DQAGIE ---------------------------------------------------------

def _ratio(x, y):
    """x / y with IEEE semantics where y is 0."""
    if y != 0.0:
        return x / y
    if x != x or x == 0.0:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _adaptive(rule, f, boun, a, b, epsabs, epsrel, limit):
    """The body DQAGSE and DQAGIE share, over [a, b] of the rule's
    variable (x for DQK21, t in [0, 1] for DQK15I)."""
    npanel = 21 if rule is _qk21 else 15
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28):
        return QuadResult(0.0, 0.0, 0, 6, 0)

    # first approximation to the integral
    (result, abserr, defabs, resabs), = rule(f, boun, ((a, b),))
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return QuadResult(result, abserr, npanel * (2 * last - 1), ier, last)

    # initialization; index 0 of each list is unused
    alist, blist = [0.0, a], [0.0, b]
    rlist, elist, iord = [0.0, result], [0.0, abserr], [0, 1]
    rlist2 = [0.0] * 55  # DQELG's epstab(52), and room past it
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    summed = False  # whether the loop leaves for the summed-rlist exit
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = rule(
            f, boun, ((a1, b1), (a2, b2)))

        # improve previous approximations to integral and error and test
        # for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= ((1.0 + 100.0 * EPMACH)
                                     * (abs(a2) + 1000.0 * UFLOW)):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, decrease the sum of the errors over the larger
            # intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate
    if not summed and abserr == OFLOW:
        summed = True
    elif not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return _final(result, abserr, ier, last, npanel)
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        return _final(result, errsum, ier, last, npanel)
    # test on divergence
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        q = _ratio(result, area)
        if 0.01 > q or q > 100.0 or errsum > abs(area):
            ier = 6
    return _final(result, abserr, ier, last, npanel)


def _final(result, abserr, ier, last, npanel):
    """The QuadResult, with the internal ier mapped to QUADPACK's output
    codes (3 to 6 become 2 to 5) and neval counted from last."""
    if ier > 2:
        ier -= 1
    return QuadResult(result, abserr, npanel * (2 * last - 1), ier, last)
