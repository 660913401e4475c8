#!/usr/bin/env bash
# Fails if the arm64 code the compiler generates for internal/nn or
# internal/nn/blas contains a fused multiply-add.  The Go spec lets a
# compiler fuse x*y + z, and on arm64 Go does; fusing skips the
# product's rounding, so batched and scalar nn would stop being
# bit-identical there.  Products in those packages are written
# float64(x*y), which the spec requires to round, and this check keeps
# it that way.
#
# Usage: scripts/check_nofma.sh
set -euo pipefail

pkgs=(./internal/nn ./internal/nn/blas)
# -a recompiles, so the listing is printed even when the build is cached.
asm="$(GOARCH=arm64 go build -a -gcflags=-S "${pkgs[@]}" 2>&1)"
if ! grep -q 'TEXT.*repro/internal/nn/blas\.' <<<"$asm" || ! grep -q 'TEXT.*repro/internal/nn\.' <<<"$asm"; then
	echo "check_nofma: no assembly listing for ${pkgs[*]}" >&2
	exit 1
fi
if fused="$(grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' <<<"$asm")"; then
	echo "check_nofma: fused multiply-add in the arm64 code of ${pkgs[*]}:" >&2
	echo "$fused" >&2
	exit 1
fi
echo "check_nofma: no fused multiply-add in ${pkgs[*]} on arm64"
