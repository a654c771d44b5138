"""Array kernels: one implementation per hot numerical loop.

Each kernel lives next to the code that calls it, as array code on
numpy/scipy: quadratic placement assembly, spreading and median
improvement (:mod:`repro.place.quadratic_numpy`), STA levelization and
propagation (:mod:`repro.timing.sta_numpy`), the router's layer
assignment and tile booking (:mod:`repro.route.router_numpy`), and the
MNA characterization sweep (:mod:`repro.characterize.mna_batch`).
Each reproduces the scalar loop it replaced bit for bit; those loops
are frozen in ``tests/kernel_oracle.py``, and
``tests/test_kernel_equivalence.py`` holds the kernels to them.

This package keeps what the kernels share: :mod:`repro.kernels.arrays`.
"""
