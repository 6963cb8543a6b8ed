"""Simulation and certification toolkit for a chip-based SDI quantum RNG.

The device model is a photonic integrated circuit that prepares a single
photon entangled between its absolute path position (up/down, |U>/|D>)
and its relative path position (far/near, |F>/|N>), rotates both path
qubits with Mach-Zehnder interferometers, and detects the photon on one
of four output channels.  A CHSH Bell violation evaluated on the click
statistics, corrected for the chip's non-idealities, certifies a
min-entropy bound on the outcomes; a Toeplitz extractor turns the raw
clicks into nearly uniform bits.

Modules
-------
qmath    exact 2x2 / 4x4 complex linear algebra and the path-qubit basis
optics   splitter, loss and spectrum models; the one closed-form MZI matrix
chip     full circuit: generation, the batched rotation kernel, detection
bell     correlation coefficients, CHSH function, scans and searches
certify  factorization bounds, correction terms, min-entropy certification
events   Monte Carlo click streams, time binning, traces, extraction
cli      configuration files, data formats, calibration fit, command line
"""

__version__ = "0.1.0"
