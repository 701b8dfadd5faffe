"""Suite-wide pytest configuration."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: runs a whole example script end to end"
    )
