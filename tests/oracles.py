"""Independent numerical oracles used by the unit and acceptance tests.

Nothing here calls the library's gradient or optimizer code paths; gradients
come from central finite differences of the forward map, the Adam trace is
recomputed from the bare recurrences, and the sigmoid reference evaluates each
sign's textbook form on its own half of the input.
"""

import numpy as np


def masked_sigmoid(v):
    """1/(1+exp(-v)) where v >= 0 and exp(v)/(1+exp(v)) elsewhere, so that
    exp never overflows; the library's sigmoid must stay within 2^-52 of it."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def scalar_loss(net, x, coeff):
    """L = sum(coeff * net(x)) — linear in the output, so dL/dout = coeff."""
    out, _ = net.forward(x)
    return float((coeff * out).sum())


def _central_differences(loss, arr, h):
    """dloss/darr by central differences, perturbing ``arr`` in place one entry at a time."""
    g = np.zeros_like(arr)
    flat_a, flat_g = arr.reshape(-1), g.reshape(-1)
    for i in range(flat_a.size):
        orig = flat_a[i]
        flat_a[i] = orig + h
        up = loss()
        flat_a[i] = orig - h
        down = loss()
        flat_a[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return g


def fd_parameter_grads(net, x, coeff, h=1e-6):
    """Central finite differences of the scalar loss for every entry of the
    network's parameter vector."""
    return _central_differences(lambda: scalar_loss(net, x, coeff), net.params, h)


def fd_input_grad(net, x, coeff, h=1e-6):
    x = np.array(x, dtype=float)
    return _central_differences(lambda: scalar_loss(net, x, coeff), x, h)


def max_rel_error(analytic, numeric, floor=1e-4):
    """Worst elementwise relative error, with the denominator floored so
    that near-zero gradients are compared absolutely at the floor scale."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def scripted_adam_step(p, g, mem, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One textbook Adam step on parameter array ``p``, in place. ``mem`` is
    {"m": array, "v": array, "t": int}."""
    mem["t"] += 1
    t = mem["t"]
    m, v = mem["m"], mem["v"]
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def fresh_adam_mem(p):
    return {"m": np.zeros_like(p), "v": np.zeros_like(p), "t": 0}
