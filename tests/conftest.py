from hypothesis import HealthCheck, settings

# Per-example time on a shared host is noisy (each example validates its
# states with LAPACK eigensolves, and some draw from the scalar SplitMix64
# methods), so property tests are bounded by max_examples instead of
# wall-clock deadlines.
settings.register_profile(
    "puritylab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("puritylab")
