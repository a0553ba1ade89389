from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")
