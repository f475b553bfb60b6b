"""Net survival from cancer-registry data with contamination-corrected life tables.

The package estimates net survival (Pohar-Perme), the relative survival
ratio (Ederer I), and the crude probability of cancer death, either against
the raw life-table cohort survival or against a non-cancer survival obtained
by solving a discrete integral equation that removes prevalent cancer
patients and future cancer deaths from the life-table population.  A
microsimulation harness reproduces the accompanying bias/rMSE study.
"""

__version__ = "0.1.0"
