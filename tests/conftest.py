from hypothesis import HealthCheck, settings

# Property tests sample their inputs in Python loops (the SplitMix64 stream),
# and on a shared host per-example timing is noisy; they are bounded by
# max_examples instead of wall-clock deadlines.
settings.register_profile(
    "puritylab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("puritylab")
