"""Weight levels with bottom/top sentinels.

Weights are plain nonnegative integers in [0, W_MAX].  Two reserved
integers act as lattice sentinels: BOTTOM is below every level (the
empty supremum) and TOP is above every level (the empty infimum).
Keeping weights as ints makes every computation exact and lets fields
be ordinary tuples.
"""

W_MAX = 2**32 - 2

BOTTOM = -1
TOP = 2**63 - 1

