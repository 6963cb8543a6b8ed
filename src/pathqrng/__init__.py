"""Simulation and certification toolkit for a chip-based SDI quantum RNG.

The device model is a photonic integrated circuit that prepares a single
photon entangled between its absolute path position (up/down, |U>/|D>)
and its relative path position (far/near, |F>/|N>), rotates both path
qubits with Mach-Zehnder interferometers, and detects the photon on one
of four output channels.  A CHSH Bell violation evaluated on the click
statistics, corrected for the chip's non-idealities, certifies a
min-entropy bound on the outcomes; a Toeplitz extractor turns the raw
clicks into nearly uniform bits.

The Hilbert space is C^2 (x) C^2: the absolute-position qubit {|U>, |D>}
(which pair of waveguides the photon occupies) times the relative-position
qubit {|F>, |N>} (which waveguide within the pair).  The basis order is
fixed everywhere as

    index 0: |UF>    index 1: |UN>    index 2: |DF>    index 3: |DN>

so index = 2*(absolute) + (relative), and every operator is a dense 2x2 or
4x4 complex ndarray in this basis.  A detector channel is its basis index
everywhere in memory: distributions are float arrays of shape (..., 4) in
basis order, outcomes are ``uint8`` codes 0..3, and raw bits are ``uint8``
arrays of 0 and 1.  The channel labels (``cli.CHANNELS``) and 0/1 text
appear only in ``cli``, where files are read and written.

Modules
-------
optics   splitter and spectrum models; the one closed-form MZI matrix
chip     full circuit: generation, the one rotation kernel ``rotate``, detection
bell     correlation coefficients, CHSH function, scans and searches
certify  factorization bounds, correction terms, min-entropy certification
events   Monte Carlo click streams, time binning, traces, extraction
cli      configuration files, data formats, calibration fit, command line
"""

__version__ = "0.1.0"
