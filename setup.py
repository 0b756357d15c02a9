"""Build with an optional C extension: the compiled kernels in src/mbzeta/_core.c
are a speedup, not a requirement. If the build fails (say, for want of a C
compiler) the package installs without them and uses the pure-Python twin."""
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"mbzeta: skipping compiled core ({exc!r}); pure-Python backend will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"mbzeta: failed to build {ext.name} ({exc!r}); pure-Python backend will be used")


setup(ext_modules=[Extension("mbzeta._core", ["src/mbzeta/_core.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
