"""A toy package the census self-test runs its checks on."""
