"""Command line interface (the ``soft`` entry point, :func:`repro.cli.main.main`)."""
