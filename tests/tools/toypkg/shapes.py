"""Toy module: one reached function, one unreached, a class with both kinds."""


def area(width, height):
    return width * height


def perimeter(width, height):
    return 2 * (width + height)


class Square:
    def __init__(self, side):
        self.side = side

    @property
    def side_length(self):
        return self.side

    @side_length.setter
    def side_length(self, value):
        self.side = value

    def area(self):
        def inner():  # a closure belongs to its function
            return area(self.side, self.side)

        return inner()

    def describe(self):
        return f"square {self.side}"
