"""dprand: randomness engineering for differential-privacy pipelines.

Entropy acquisition and mixing, an AES-256 counter-mode DRBG with explicit
reseed policy, DP noise samplers over a uniform bit-generator abstraction,
randomness budgeting for hierarchical histogram workloads, output sanity
tests, and a working demonstration of why a non-cryptographic generator
voids the privacy guarantee.
"""

from .attack import (AttackTranscript, GeometricInvCdfChannel, IdentityChannel,
                     reconstruct_state, sparse_histogram_attack, untemper)
from .bitgen import Backend, GeneratorHandle, spawn_streams
from .budget import BudgetReport, BudgetSpec, Geolevel, compute_budget, us_2020_spec
from .drbg import SEED_LEN, CtrDrbg, DrbgConfig, instantiate
from .entropy import (EntropySource, Resistance, SeedProvider, SourceKind,
                      emulated_seed_source, fetch_remote, fixed_test_source, mix,
                      os_urandom_source, rdrand_source, rdseed_source, read_with_retry,
                      remote_source)
from .errors import (BadResponse, BadSeedLength, ChannelNotInvertible, DprandError,
                     DuplicateSeed, EmptyInput, InsecureUseRefused, InvalidSpec,
                     RemoteTimeout, RequestTooLarge, ReseedRequired, RetryExhausted,
                     SampleTooSmall, SourceUnavailable)
from .events import EventLog
from .mechanisms import (MechanismParams, NoisyMeasurement, geometric_mechanism,
                         laplace_mechanism_insecure, two_sided_geometric,
                         two_sided_geometric_mass_within, two_sided_geometric_pmf)
from .mt19937 import Mt19937, MtState, temper
from .quality import (BenchReport, StatReport, bench_throughput, run_stat_tests,
                      run_stat_tests_on_bytes)

__version__ = "0.1.0"
