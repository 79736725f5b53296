from hypothesis import settings

# every property test replays the same examples on every run
settings.register_profile("normkit", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("normkit")
