"""Limited-aperture direct sampling methods for 2-D inverse acoustic scattering.

Synthesizes far-field data for penetrable scatterers with a Lippmann-Schwinger
volume solver and reconstructs them with direct sampling indices: the classical
Green-function probe, finite-space constructed probes (FFSM, FSSM), and an
unsupervised deep probing network.  Import each module as lapdsm.<module>.
"""

__version__ = "0.1.0"
