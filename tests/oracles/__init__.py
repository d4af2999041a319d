"""Reference implementations that tests compare the production kernels against."""
