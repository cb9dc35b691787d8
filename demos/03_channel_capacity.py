"""Classical-quantum channel capacity: Holevo quantity and coding bounds.

Computes the Holevo capacity of small channels by alternating maximization,
evaluates the one-shot and finite-blocklength capacity lower bounds, and
certifies the factorization constant of a toy channel with memory.
"""

import math

import numpy as np

import qhtbounds as q

# a binary symmetric channel embedded in diagonal qubit states
p_flip = 0.1
bsc = q.CQChannel(
    ("0", "1"),
    {
        "0": q.density_matrix(np.diag([1 - p_flip, p_flip]).astype(complex)),
        "1": q.density_matrix(np.diag([p_flip, 1 - p_flip]).astype(complex)),
    },
)
report = q.holevo_capacity(bsc)
h_b = -p_flip * math.log(p_flip) - (1 - p_flip) * math.log(1 - p_flip)
print("BSC capacity:", report.chi_star, " closed form:", math.log(2) - h_b)
print("optimal prior:", report.prior, " duality gap:", report.duality_gap)
print("v_min:", report.v_min)

# two pure states with overlap s: capacity is the binary entropy of (1+s)/2
s = 0.6
pure = q.CQChannel(
    ("a", "b"),
    {"a": q.pure_state([1.0, 0.0]), "b": q.pure_state([s, math.sqrt(1 - s * s)])},
)
rep2 = q.holevo_capacity(pure)
pp = (1 + s) / 2
print("\ntwo pure states:", rep2.chi_star, " closed form:", -pp * math.log(pp) - (1 - pp) * math.log(1 - pp))

# one-shot and n-letter lower bounds on the capacity
eps, eps_prime = 0.2, 0.05
print("\nWR one-shot lower bound:", q.wr_lower_bound(bsc, eps, eps_prime, report.prior))
print("n   concentration lower bound   n * chi*")
for n in (1, 4, 16, 64):
    val = q.capacity_lower_memoryless(bsc, n, eps, eps_prime, report)
    print(f"{n:<3} {val:+.4f}                     {n * report.chi_star:.4f}")

# a channel with memory built from per-letter kernels on a shared memory state
def kernel(tmat, seed):
    states = [[q.random_density(2, seed + i + 2 * j) for j in range(2)] for i in range(2)]
    return list(q.commutative_fcs(tmat, states, [0.5, 0.5]).kraus_steps[0])


family = q.kernel_family(
    {
        "0": kernel(np.array([[0.8, 0.2], [0.2, 0.8]]), 100),
        "1": kernel(np.array([[0.3, 0.7], [0.7, 0.3]]), 200),
    },
    q.maximally_mixed(2),
)
q.certify_family(family, 3, "upper")
print("\nmemory channel factorization constant:", family.r_upper)
rep3 = q.holevo_capacity(family.base)
print("single-letter capacity:", rep3.chi_star)
for n in (1, 2, 3):
    print(f"  n={n}: factorized capacity lower bound =",
          q.capacity_lower_factorized(family, n, eps, eps_prime, rep3))

# moderate-deviation regime needs outputs close together (c_p below log 4)
wide = q.CQChannel(
    ("0", "1"),
    {
        "0": q.density_matrix(np.diag([0.6, 0.4]).astype(complex)),
        "1": q.density_matrix(np.diag([0.4, 0.6]).astype(complex)),
    },
)
rep4 = q.holevo_capacity(wide)
fam4 = q.memoryless_family(wide)
n = 50
a_n = n ** (-1.0 / 3.0)
print("\nmoderate regime at n=50, eps_n =", math.exp(-n * a_n**2))
print("  lower      =", q.capacity_moderate(fam4, a_n, n, "lower", rep4))
print("  upper form =", q.capacity_moderate(fam4, a_n, n, "upper_form", rep4))
print("  n chi*     =", n * rep4.chi_star)
