"""The synthetic legacy Synoptic SARB FORTRAN code.

This is the "original serial implementation" of the case study: the
modules the GLAF-generated code must integrate with (``fuliou_mod`` with
its derived TYPE and optical-depth tables, ``rad_output_mod`` with the flux
and entropy profiles, the ``/entwts/`` COMMON block) and the hand-written,
monolithic subroutines that GLAF's generated units replace.

The source is genuine FORTRAN executed by :mod:`repro.fortranlib`; it
deliberately mixes modern modules with FORTRAN-77 COMMON blocks, as
production SARB does (paper §3.2: "COMMON blocks are present in a lot of
production-level codes").
"""

from __future__ import annotations

from .atmosphere import DEFAULT_DIMS, SarbDimensions

__all__ = ["legacy_modules_source", "legacy_kernels_source", "legacy_driver_source",
           "setup_source", "full_legacy_source"]


def legacy_modules_source(dims: SarbDimensions = DEFAULT_DIMS) -> str:
    nv, nb, nbs = dims.nv, dims.nblw, dims.nbsw
    return f"""
! ======================================================================
! fuliou_mod: Fu-Liou radiative transfer model inputs (legacy)
! ======================================================================
MODULE fuliou_mod
  IMPLICIT NONE
  TYPE rad_input
    REAL(KIND=8) :: tsfc
    REAL(KIND=8) :: pres({nv})
    REAL(KIND=8) :: temp({nv})
    REAL(KIND=8) :: cld({nv})
  END TYPE rad_input
  TYPE(rad_input) :: fin
  REAL(KIND=8) :: taudp({nv}, {nb})
  REAL(KIND=8) :: tausw({nv}, {nbs})
END MODULE fuliou_mod

! ======================================================================
! rad_output_mod: flux and entropy profiles (legacy outputs)
! ======================================================================
MODULE rad_output_mod
  IMPLICIT NONE
  REAL(KIND=8) :: fulw({nv})
  REAL(KIND=8) :: fusw({nv})
  REAL(KIND=8) :: fwin({nv})
  REAL(KIND=8) :: slw({nv})
  REAL(KIND=8) :: ssw({nv})
END MODULE rad_output_mod
"""


def legacy_kernels_source(dims: SarbDimensions = DEFAULT_DIMS) -> str:
    """The original serial subroutines, monolithic style (no GLAF scratch
    module: local temporaries instead of module-scope grids)."""
    nv, nb, nbs = dims.nv, dims.nblw, dims.nbsw
    return f"""
! ======================================================================
! sarb_kernels_mod: original serial implementations
! ======================================================================
MODULE sarb_kernels_mod
  IMPLICIT NONE
  REAL(KIND=8) :: planck_tmp({nv})
  REAL(KIND=8) :: scratch({nv})
  REAL(KIND=8) :: scr2({nv})
  REAL(KIND=8) :: swtmp({nv})
  REAL(KIND=8) :: olr_acc
  REAL(KIND=8) :: swn_acc
CONTAINS

  SUBROUTINE lw_spectral_integration(nv, nb, flux)
    USE fuliou_mod, ONLY: fin, taudp
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    INTEGER, INTENT(IN) :: nb
    REAL(KIND=8), INTENT(INOUT) :: flux({nv})
    REAL(KIND=8) :: wlw({nb})
    REAL(KIND=8) :: wsw({nbs})
    REAL(KIND=8) :: wwin({nb})
    COMMON /entwts/ wlw, wsw, wwin
    INTEGER :: i, bnd
    DO i = 1, nv
      flux(i) = 0.0D0
    END DO
    DO i = 1, nv
      planck_tmp(i) = fin%tsfc
    END DO
    DO i = 1, nv
      DO bnd = 1, nb
        flux(i) = flux(i) + wlw(bnd) * EXP(-taudp(i, bnd)) * planck_tmp(i)
      END DO
    END DO
    DO i = 1, nv
      flux(i) = flux(i) * 0.5D0 + ABS(fin%pres(i)) * 0.001D0
      olr_acc = olr_acc + flux(i)
    END DO
  END SUBROUTINE lw_spectral_integration

  SUBROUTINE longwave_entropy_model(nv, nb)
    USE fuliou_mod, ONLY: fin, taudp
    USE rad_output_mod, ONLY: fulw, slw, fwin
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    INTEGER, INTENT(IN) :: nb
    REAL(KIND=8) :: wlw({nb})
    REAL(KIND=8) :: wsw({nbs})
    REAL(KIND=8) :: wwin({nb})
    COMMON /entwts/ wlw, wsw, wwin
    INTEGER :: i, bnd
    DO i = 1, nv
      slw(i) = 0.0D0
    END DO
    DO i = 1, nv
      scratch(i) = 0.0D0
    END DO
    DO i = 1, nv
      scr2(i) = 0.0D0
    END DO
    DO i = 1, nv
      fwin(i) = 0.0D0
    END DO
    DO i = 1, nv
      DO bnd = 1, nb
        IF (taudp(i, bnd) > 1.0D0) THEN
          scratch(i) = scratch(i) + wlw(bnd) * ALOG(taudp(i, bnd) + 1.0D0)
          slw(i) = slw(i) + fulw(i) * wlw(bnd) / MAX(fin%temp(i), 180.0D0)
        ELSE
          scratch(i) = scratch(i) + wlw(bnd) * taudp(i, bnd)
          slw(i) = slw(i) + fulw(i) * wlw(bnd) * EXP(-taudp(i, bnd)) / MAX(fin%temp(i), 180.0D0)
        END IF
      END DO
    END DO
    DO i = 1, nv
      DO bnd = 1, nb
        IF (fin%cld(i) > 0.5D0) THEN
          slw(i) = slw(i) + 0.1D0 * wlw(bnd) * fin%cld(i) * scratch(i)
        ELSE
          slw(i) = slw(i) + 0.01D0 * wlw(bnd) * scratch(i)
        END IF
      END DO
    END DO
    DO i = 1, nv
      DO bnd = 1, nb
        scr2(i) = scr2(i) + wwin(bnd) * taudp(i, bnd) * 0.01D0
      END DO
    END DO
    DO i = 1, nv
      slw(i) = slw(i) / MAX(scratch(i), 1.0D0)
      fwin(i) = slw(i) * wwin(1) + 0.5D0 * wwin(2) + 0.001D0 * scr2(i)
    END DO
  END SUBROUTINE longwave_entropy_model

  SUBROUTINE sw_spectral_integration(nv, nbs, flux)
    USE fuliou_mod, ONLY: fin, tausw
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    INTEGER, INTENT(IN) :: nbs
    REAL(KIND=8), INTENT(INOUT) :: flux({nv})
    REAL(KIND=8) :: wlw({nb})
    REAL(KIND=8) :: wsw({dims.nbsw})
    REAL(KIND=8) :: wwin({nb})
    COMMON /entwts/ wlw, wsw, wwin
    INTEGER :: i, bnd
    DO i = 1, nv
      flux(i) = 0.0D0
    END DO
    DO i = 1, nv
      DO bnd = 1, nbs
        flux(i) = flux(i) + wsw(bnd) * EXP(-tausw(i, bnd) * 2.0D0)
      END DO
    END DO
    DO i = 1, nv
      swtmp(i) = wsw(1)
    END DO
    DO i = 1, nv
      flux(i) = SQRT(flux(i) * flux(i) + 1.0D0) - 1.0D0 + 0.05D0 * fin%cld(i) * swtmp(i)
      swn_acc = swn_acc + flux(i) * wsw(1)
    END DO
  END SUBROUTINE sw_spectral_integration

  SUBROUTINE shortwave_entropy_model(nv)
    USE fuliou_mod, ONLY: fin
    USE rad_output_mod, ONLY: fusw, ssw
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    INTEGER :: i
    DO i = 1, nv
      ssw(i) = fusw(i) / MAX(fin%temp(i), 180.0D0)
    END DO
  END SUBROUTINE shortwave_entropy_model

  SUBROUTINE adjust2(nv, flux)
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    REAL(KIND=8), INTENT(INOUT) :: flux({nv})
    REAL(KIND=8) :: wlw({nb})
    REAL(KIND=8) :: wsw({nbs})
    REAL(KIND=8) :: wwin({nb})
    COMMON /entwts/ wlw, wsw, wwin
    INTEGER :: i
    DO i = 1, nv
      flux(i) = flux(i) * (1.0D0 + 0.01D0 * wwin(1))
    END DO
    DO i = 2, nv
      flux(i) = flux(i) + flux(i - 1) * 0.05D0
    END DO
    DO i = 1, nv
      flux(i) = MIN(MAX(flux(i), 0.0D0), 1000.0D0)
    END DO
  END SUBROUTINE adjust2

  SUBROUTINE entropy_interface(nv, nb, nbs)
    USE rad_output_mod, ONLY: fulw, fusw, fwin
    IMPLICIT NONE
    INTEGER, INTENT(IN) :: nv
    INTEGER, INTENT(IN) :: nb
    INTEGER, INTENT(IN) :: nbs
    REAL(KIND=8) :: wlw({nb})
    REAL(KIND=8) :: wsw({nbs})
    REAL(KIND=8) :: wwin({nb})
    COMMON /entwts/ wlw, wsw, wwin
    INTEGER :: i
    CALL lw_spectral_integration(nv, nb, fulw)
    CALL sw_spectral_integration(nv, nbs, fusw)
    CALL longwave_entropy_model(nv, nb)
    CALL shortwave_entropy_model(nv)
    CALL adjust2(nv, fulw)
    CALL adjust2(nv, fusw)
    DO i = 1, nv
      fwin(i) = fwin(i) + 0.5D0 * (fulw(i) + fusw(i)) * wwin(2)
    END DO
  END SUBROUTINE entropy_interface

END MODULE sarb_kernels_mod
"""


def setup_source(dims: SarbDimensions = DEFAULT_DIMS) -> str:
    """Subroutines the harness calls to populate COMMON storage."""
    nb, nbs = dims.nblw, dims.nbsw
    return f"""
SUBROUTINE set_entwts(w1, w2, w3)
  IMPLICIT NONE
  REAL(KIND=8), INTENT(IN) :: w1({nb})
  REAL(KIND=8), INTENT(IN) :: w2({nbs})
  REAL(KIND=8), INTENT(IN) :: w3({nb})
  REAL(KIND=8) :: wlw({nb})
  REAL(KIND=8) :: wsw({nbs})
  REAL(KIND=8) :: wwin({nb})
  COMMON /entwts/ wlw, wsw, wwin
  INTEGER :: i
  DO i = 1, {nb}
    wlw(i) = w1(i)
    wwin(i) = w3(i)
  END DO
  DO i = 1, {nbs}
    wsw(i) = w2(i)
  END DO
END SUBROUTINE set_entwts
"""


def legacy_driver_source(dims: SarbDimensions = DEFAULT_DIMS) -> str:
    """The 'provided Synoptic SARB test suite' equivalent: runs the
    pipeline and prints summary statistics the harness checks."""
    nv = dims.nv
    return f"""
PROGRAM sarb_test_suite
  USE rad_output_mod, ONLY: fulw, fusw, fwin, slw, ssw
  IMPLICIT NONE
  INTEGER :: i
  REAL(KIND=8) :: rms_lw, rms_sw
  CALL entropy_interface({nv}, {dims.nblw}, {dims.nbsw})
  rms_lw = 0.0D0
  rms_sw = 0.0D0
  DO i = 1, {nv}
    rms_lw = rms_lw + fulw(i) * fulw(i)
    rms_sw = rms_sw + fusw(i) * fusw(i)
  END DO
  rms_lw = SQRT(rms_lw / {nv})
  rms_sw = SQRT(rms_sw / {nv})
  PRINT *, 'rms_lw', rms_lw
  PRINT *, 'rms_sw', rms_sw
  PRINT *, 'slw_sum', SUM(slw)
  PRINT *, 'ssw_sum', SUM(ssw)
  PRINT *, 'fwin_sum', SUM(fwin)
END PROGRAM sarb_test_suite
"""


def full_legacy_source(dims: SarbDimensions = DEFAULT_DIMS) -> dict[str, str]:
    """The legacy codebase as {filename: source}."""
    return {
        "fuliou_modules.f90": legacy_modules_source(dims),
        "sarb_kernels.f90": legacy_kernels_source(dims),
        "sarb_setup.f90": setup_source(dims),
        "sarb_driver.f90": legacy_driver_source(dims),
    }
